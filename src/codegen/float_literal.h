// The float-literal spelling the OpenCL, CUDA and host C++ printers share.
#pragma once

#include <cstdio>
#include <string>

namespace igc::codegen {

/// A finite float immediate as a literal: "%.9g", which round-trips every
/// float, then ".0" if that reads as an integer, then the f suffix (1.0f / 3
/// prints 0.333333343f, 2^24 16777216.0f). Each dialect spells infinities
/// and NaN its own way.
inline std::string finite_float_literal(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  std::string s(buf);
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) {
    s += ".0";
  }
  return s + "f";
}

}  // namespace igc::codegen
