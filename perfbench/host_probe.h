// Host-speed probe of the repository benchmark (see README.md beside it).
//
// The benchmark runs on a shared virtual machine whose floating-point speed
// swings by up to 1.6x over minutes as other tenants load the physical cores.
// The probe times one fixed floating-point kernel on every vCPU at once, so
// the closed loops can report their host times at a reference host speed.
// It is built apart from the library, so that nothing the library's build
// sets, and no change to the library's code, changes what the probe runs.
#pragma once

namespace perfbench {

/// Runs the fixed kernel on `threads` threads at once and returns the mean
/// of their times, in ms. Takes about 1 ms per thread on a 4-vCPU host.
double host_probe_ms(int threads);

}  // namespace perfbench
