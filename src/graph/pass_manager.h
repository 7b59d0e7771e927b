// The graph pass manager (Fig. 1 "Optimized Computational Graph" spine).
//
// Every graph-level optimization — batch-norm folding, operator fusion,
// constant pre-computing (Sec. 3.2.3), dead-node compaction, heterogeneous
// placement (Sec. 3.1.2) — is a named `Pass` over a rewritable `Graph`.
// A `PassPipeline` runs passes in order with per-pass instrumentation:
//
//   * wall time and nodes-rewritten counts go to `obs::MetricsRegistry`
//     under `graph.pass.<name>.{runs,rewrites}` (counters) and
//     `graph.pass.<name>.us` (histogram of per-run wall microseconds);
//   * `Graph::validate()` runs after every pass, so a rewrite that breaks
//     a structural invariant throws igc::Error at the pass that broke it;
//   * `dump_graph_after` streams `Graph::summary()` after selected passes
//     (the `igc-compile --dump-graph-after=<pass>` view).
//
// `compile()` builds its pipeline from `CompileOptions` (explicit order or
// the default, minus `disabled_passes`), so any pass can be reordered,
// disabled, or replaced without touching the compiler — as long as the
// pipeline compacts: it must include `dce` or `place`, because the memory
// planner refuses a graph that still holds dead pass-through markers.
#pragma once

#include <iosfwd>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/passes.h"

namespace igc::graph {

/// One named graph rewrite. `run` mutates the graph in place and returns the
/// number of rewrites it performed (nodes folded, fused, removed, or
/// inserted); a second run on the same graph must return 0 (idempotence —
/// tested for every registered pass).
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual int run(Graph& g) = 0;
};

/// Per-pass record of one pipeline execution.
struct PassRunStats {
  std::string pass;
  int rewrites = 0;
  double wall_ms = 0.0;
};

struct PassPipelineOptions {
  /// Stream Graph::summary() to `dump_stream` after each listed pass.
  std::set<std::string> dump_graph_after;
  /// Destination for graph dumps (std::cerr when null).
  std::ostream* dump_stream = nullptr;
};

/// An ordered list of passes, run front to back over one graph.
class PassPipeline {
 public:
  PassPipeline() = default;
  explicit PassPipeline(PassPipelineOptions opts) : opts_(std::move(opts)) {}

  PassPipeline& add(std::unique_ptr<Pass> pass);

  /// Names of the passes in run order.
  std::vector<std::string> pass_names() const;

  /// Runs every pass in order over `g`, validating the graph after each one
  /// (igc::Error on a broken invariant), recording graph.pass.* metrics and
  /// honoring the dump options. Returns one record per pass.
  std::vector<PassRunStats> run(Graph& g) const;

 private:
  PassPipelineOptions opts_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The standard pipeline order: fold_scale_shift, fuse_activation,
/// constant_precompute, dce, place.
const std::vector<std::string>& default_pass_names();

/// The default pipeline as a comma-joined string ("fold_scale_shift,...")
/// for bench-row metadata headers.
const std::string& default_pass_names_joined();

/// Comma-joins an arbitrary pass-name list (same format as above).
std::string join_pass_names(const std::vector<std::string>& names);

/// Instantiates a registered pass by name. `cpu_ops` parameterizes "place"
/// (operator kinds that fall back to the companion CPU); other passes ignore
/// it. Throws igc::Error on an unknown name, listing the registered passes.
std::unique_ptr<Pass> make_pass(const std::string& name,
                                const std::set<OpKind>& cpu_ops = {});

/// Builds a pipeline from `names` (empty = default_pass_names()) minus any
/// names in `disabled`. Disabling a name not in the list is a no-op;
/// unknown names in `names` throw.
PassPipeline build_pipeline(const std::vector<std::string>& names,
                            const std::set<std::string>& disabled,
                            const std::set<OpKind>& cpu_ops = {},
                            PassPipelineOptions opts = {});

/// Summarizes a pipeline run into the compile-facing PassStats: per-pass
/// rewrite counts mapped to their legacy fields, plus device counts over the
/// graph's nodes (a compiled graph is compact, so every node is live).
PassStats pass_stats_from(const std::vector<PassRunStats>& report,
                          const Graph& g);

}  // namespace igc::graph
