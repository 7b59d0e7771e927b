#include "graph/pass_manager.h"

#include <chrono>
#include <functional>
#include <iostream>
#include <utility>

#include "core/error.h"
#include "obs/metrics.h"

namespace igc::graph {
namespace {

/// Adapter turning a free-function rewrite into a named Pass.
class FunctionPass : public Pass {
 public:
  FunctionPass(std::string name, std::function<int(Graph&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string_view name() const override { return name_; }
  int run(Graph& g) override { return fn_(g); }

 private:
  std::string name_;
  std::function<int(Graph&)> fn_;
};

}  // namespace

PassPipeline& PassPipeline::add(std::unique_ptr<Pass> pass) {
  IGC_CHECK(pass != nullptr) << "null pass added to pipeline";
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<std::string> PassPipeline::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.emplace_back(p->name());
  return names;
}

std::vector<PassRunStats> PassPipeline::run(Graph& g) const {
  auto& reg = obs::MetricsRegistry::global();
  std::vector<PassRunStats> report;
  report.reserve(passes_.size());
  for (const auto& pass : passes_) {
    PassRunStats st;
    st.pass = std::string(pass->name());
    const auto t0 = std::chrono::steady_clock::now();
    st.rewrites = pass->run(g);
    const auto t1 = std::chrono::steady_clock::now();
    st.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const std::string prefix = "graph.pass." + st.pass;
    reg.counter(prefix + ".runs").add(1);
    reg.counter(prefix + ".rewrites").add(st.rewrites);
    reg.histogram(prefix + ".us")
        .observe(static_cast<int64_t>(st.wall_ms * 1000.0));

    g.validate();
    if (opts_.dump_graph_after.count(st.pass)) {
      std::ostream& os =
          opts_.dump_stream != nullptr ? *opts_.dump_stream : std::cerr;
      os << "=== graph after pass '" << st.pass << "' ===\n"
         << g.summary() << '\n';
    }
    report.push_back(std::move(st));
  }
  return report;
}

const std::vector<std::string>& default_pass_names() {
  static const std::vector<std::string> kNames = {
      "fold_scale_shift", "fuse_activation", "constant_precompute",
      "dce",              "place",
  };
  return kNames;
}

const std::string& default_pass_names_joined() {
  static const std::string kJoined = join_pass_names(default_pass_names());
  return kJoined;
}

std::string join_pass_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ',';
    out += n;
  }
  return out;
}

std::unique_ptr<Pass> make_pass(const std::string& name,
                                const std::set<OpKind>& cpu_ops) {
  if (name == "fold_scale_shift") {
    return std::make_unique<FunctionPass>(name, fold_scale_shift_pass);
  }
  if (name == "fuse_activation") {
    return std::make_unique<FunctionPass>(name, fuse_activation_pass);
  }
  if (name == "constant_precompute") {
    return std::make_unique<FunctionPass>(name, constant_precompute_pass);
  }
  if (name == "dce") {
    return std::make_unique<FunctionPass>(name, dead_node_elimination_pass);
  }
  if (name == "place") {
    return std::make_unique<FunctionPass>(
        name, [cpu_ops](Graph& g) { return placement_pass(g, cpu_ops); });
  }
  IGC_CHECK(false) << "unknown graph pass '" << name << "' (registered: "
                   << default_pass_names_joined() << ")";
}

PassPipeline build_pipeline(const std::vector<std::string>& names,
                            const std::set<std::string>& disabled,
                            const std::set<OpKind>& cpu_ops,
                            PassPipelineOptions opts) {
  const std::vector<std::string>& order =
      names.empty() ? default_pass_names() : names;
  PassPipeline pipeline(std::move(opts));
  for (const std::string& n : order) {
    if (disabled.count(n)) continue;
    pipeline.add(make_pass(n, cpu_ops));
  }
  return pipeline;
}

PassStats pass_stats_from(const std::vector<PassRunStats>& report,
                          const Graph& g) {
  PassStats stats;
  for (const PassRunStats& st : report) {
    if (st.pass == "fold_scale_shift") {
      stats.folded_scale_shifts += st.rewrites;
    } else if (st.pass == "fuse_activation") {
      stats.fused_activations += st.rewrites;
    } else if (st.pass == "constant_precompute") {
      stats.precomputed_constants += st.rewrites;
    } else if (st.pass == "dce") {
      stats.removed_dead_nodes += st.rewrites;
    } else if (st.pass == "place") {
      stats.copies_inserted += st.rewrites;
    }
  }
  for (const Node& n : g.nodes()) {
    if (n.place == Place::kGpu) {
      ++stats.gpu_nodes;
    } else {
      ++stats.cpu_nodes;
    }
  }
  return stats;
}

}  // namespace igc::graph
