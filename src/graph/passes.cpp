#include "graph/passes.h"

#include <algorithm>
#include <optional>

#include "core/error.h"
#include "graph/executor.h"
#include "graph/pass_manager.h"

namespace igc::graph {
namespace {

/// Rewires every consumer of `from` to read `to` instead, and moves the
/// graph output if needed. `from` becomes unreferenced (dead) until the
/// dce pass removes it.
void bypass(Graph& g, int from, int to) {
  for (Node& n : g.nodes()) {
    for (int& in : n.inputs) {
      if (in == from) in = to;
    }
  }
  if (g.output() == from) g.set_output(to);
}

/// Consumer lists counting only live nodes, so earlier passes' bypassed
/// nodes do not inhibit later rewrites.
std::vector<std::vector<int>> live_consumers(const Graph& g) {
  const std::vector<bool> live = g.live_mask();
  std::vector<std::vector<int>> out(static_cast<size_t>(g.num_nodes()));
  for (const Node& n : g.nodes()) {
    if (!live[static_cast<size_t>(n.id)]) continue;
    for (int in : n.inputs) out[static_cast<size_t>(in)].push_back(n.id);
  }
  return out;
}

}  // namespace

int fold_scale_shift_pass(Graph& g) {
  int folded = 0;
  const auto consumers = live_consumers(g);
  const std::vector<bool> live = g.live_mask();
  for (Node& n : g.nodes()) {
    // An already-bypassed marker must not fold again (the scale would apply
    // twice) — skipping dead nodes makes a second run find nothing.
    if (!live[static_cast<size_t>(n.id)]) continue;
    if (n.kind != OpKind::kScaleShift) continue;
    Node& producer = g.node(n.inputs[0]);
    if (!producer.is_conv()) continue;
    // Folding into the conv mutates its weights; only safe when the conv
    // feeds this scale-shift exclusively.
    if (consumers[static_cast<size_t>(producer.id)].size() != 1) continue;

    // w'[co, ...] = w[co, ...] * scale[co];  b' = b * scale + shift.
    const int64_t co = producer.conv.out_channels;
    const int64_t per_filter = producer.weight.numel() / co;
    Tensor w = producer.weight.clone();
    for (int64_t c = 0; c < co; ++c) {
      const float s = n.scale.data_f32()[c];
      float* wp = w.data_f32() + c * per_filter;
      for (int64_t i = 0; i < per_filter; ++i) wp[i] *= s;
    }
    Tensor b(Shape{co}, DType::kFloat32);
    for (int64_t c = 0; c < co; ++c) {
      const float old_b =
          producer.bias.defined() ? producer.bias.data_f32()[c] : 0.0f;
      b.data_f32()[c] =
          old_b * n.scale.data_f32()[c] + n.shift.data_f32()[c];
    }
    producer.weight = std::move(w);
    producer.bias = std::move(b);
    bypass(g, n.id, producer.id);
    ++folded;
  }
  return folded;
}

int fuse_activation_pass(Graph& g) {
  int fused = 0;
  const auto consumers = live_consumers(g);
  const std::vector<bool> live = g.live_mask();
  for (Node& n : g.nodes()) {
    if (!live[static_cast<size_t>(n.id)]) continue;
    if (n.kind != OpKind::kActivation) continue;
    Node& producer = g.node(n.inputs[0]);
    const bool fusable = producer.kind == OpKind::kConv2d ||
                         producer.kind == OpKind::kAdd ||
                         producer.kind == OpKind::kScaleShift ||
                         producer.kind == OpKind::kDense;
    if (!fusable) continue;
    if (consumers[static_cast<size_t>(producer.id)].size() != 1) continue;
    if (producer.fused_activation) continue;
    producer.fused_activation = true;
    producer.fused_act = n.act;
    producer.fused_act_alpha = n.act_alpha;
    bypass(g, n.id, producer.id);
    ++fused;
  }
  return fused;
}

int constant_precompute_pass(Graph& g) {
  int folded = 0;
  const std::vector<bool> live = g.live_mask();
  // Topological order: folding node k into a constant lets a later node
  // whose other inputs are already constant fold in the same sweep, so a
  // whole constant subgraph collapses in one run (and the second run finds
  // nothing left to fold — idempotence). Dead markers left by earlier
  // rewiring passes are skipped: evaluating them would waste compile time
  // on results nothing reads.
  for (Node& n : g.nodes()) {
    if (!live[static_cast<size_t>(n.id)]) continue;
    const bool all_const = std::all_of(
        n.inputs.begin(), n.inputs.end(),
        [&](int in) { return g.node(in).kind == OpKind::kConstant; });
    if (!all_const) continue;
    // The executor's own rule, so pre-computing never changes an output bit.
    // Inputs, constants, vision ops and device copies have none.
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (int in : n.inputs) inputs.push_back(g.node(in).weight);
    std::optional<Tensor> value = reference_output(n, inputs);
    if (!value.has_value()) continue;
    IGC_CHECK(value->shape() == n.out_shape)
        << n.name << ": precompute shape " << value->shape().str();
    // Rewrite in place: the node keeps its id and name (consumers and the
    // per-node RNG seeding are untouched); its feeders become dead.
    n.kind = OpKind::kConstant;
    n.weight = std::move(*value);
    n.bias = Tensor();
    n.inputs.clear();
    n.fused_activation = false;
    ++folded;
  }
  return folded;
}

int dead_node_elimination_pass(Graph& g) {
  const std::vector<bool> live = g.live_mask();
  const int dead = static_cast<int>(
      std::count(live.begin(), live.end(), false));
  if (dead == 0) return 0;

  Graph compact;
  std::vector<int> remap(static_cast<size_t>(g.num_nodes()), -1);
  for (Node& old : g.nodes()) {
    if (!live[static_cast<size_t>(old.id)]) continue;
    const int old_id = old.id;
    Node n = std::move(old);  // the source graph is discarded below
    for (int& in : n.inputs) {
      in = remap[static_cast<size_t>(in)];
      IGC_CHECK_GE(in, 0);
    }
    compact.nodes().push_back(std::move(n));
    compact.nodes().back().id = compact.num_nodes() - 1;
    remap[static_cast<size_t>(old_id)] = compact.nodes().back().id;
  }
  compact.set_output(remap[static_cast<size_t>(g.output())]);
  compact.set_shape_spec(g.shape_spec());
  compact.validate();
  g = std::move(compact);
  return dead;
}

int placement_pass(Graph& g, const std::set<OpKind>& cpu_ops) {
  // Pass 1: tag each node's device. Inputs are host-side; constants are
  // resident wherever their consumers read them (unified memory), so they
  // take the GPU default and never cost a per-run upload; every compute
  // node defaults to GPU unless its kind is in the fallback list.
  for (Node& n : g.nodes()) {
    if (n.kind == OpKind::kInput) {
      n.place = Place::kCpu;
    } else if (n.kind == OpKind::kDeviceCopy) {
      // A copy from an earlier placement run keeps its destination side;
      // retagging it would strand it on one device and trigger an endless
      // chain of new copies on repeated runs.
    } else {
      n.place = cpu_ops.count(n.kind) ? Place::kCpu : Place::kGpu;
    }
  }

  // Pass 2: rebuild the node list, inserting a device_copy between any two
  // directly connected nodes on different devices. The rebuild keeps only
  // live nodes, so it compacts the graph as dce does.
  Graph rebuilt;
  std::vector<int> remap(static_cast<size_t>(g.num_nodes()), -1);
  const std::vector<bool> live = g.live_mask();

  int copies = 0;
  for (Node& old : g.nodes()) {
    if (!live[static_cast<size_t>(old.id)]) continue;
    Node n = old;  // copy params/tensors
    const int old_id = n.id;
    for (int& in : n.inputs) {
      const int mapped = remap[static_cast<size_t>(in)];
      IGC_CHECK_GE(mapped, 0);
      const Node& producer = rebuilt.node(mapped);
      // A device copy's whole job is to bridge devices, so its input being
      // on the far side is expected, not a boundary to patch.
      if (producer.place != n.place && n.kind != OpKind::kDeviceCopy) {
        Node copy;
        copy.name = producer.name + "_to_" +
                    (n.place == Place::kGpu ? "gpu" : "cpu");
        copy.kind = OpKind::kDeviceCopy;
        copy.inputs = {mapped};
        copy.out_shape = producer.out_shape;
        copy.place = n.place;  // the copy runs on the destination side
        // Insert through the internal path used by builder methods.
        rebuilt.nodes().push_back(copy);
        rebuilt.nodes().back().id = rebuilt.num_nodes() - 1;
        in = rebuilt.nodes().back().id;
        ++copies;
      } else {
        in = mapped;
      }
    }
    rebuilt.nodes().push_back(n);
    rebuilt.nodes().back().id = rebuilt.num_nodes() - 1;
    remap[static_cast<size_t>(old_id)] = rebuilt.nodes().back().id;
  }
  rebuilt.set_output(remap[static_cast<size_t>(g.output())]);
  rebuilt.set_shape_spec(g.shape_spec());
  rebuilt.validate();
  g = std::move(rebuilt);
  return copies;
}

PassStats optimize(Graph& g, const std::set<OpKind>& cpu_ops) {
  const PassPipeline pipeline = build_pipeline({}, {}, cpu_ops);
  return pass_stats_from(pipeline.run(g), g);
}

}  // namespace igc::graph
