#include "graph/graph.h"

#include <sstream>

#include "core/error.h"

namespace igc::graph {

std::string_view op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kInput: return "input";
    case OpKind::kConstant: return "constant";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kConv2dTranspose: return "conv2d_transpose";
    case OpKind::kScaleShift: return "scale_shift";
    case OpKind::kActivation: return "activation";
    case OpKind::kAdd: return "add";
    case OpKind::kConcat: return "concat";
    case OpKind::kPool2d: return "pool2d";
    case OpKind::kGlobalAvgPool: return "global_avg_pool";
    case OpKind::kDense: return "dense";
    case OpKind::kFlatten: return "flatten";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kUpsample2x: return "upsample2x";
    case OpKind::kSsdDetection: return "ssd_detection";
    case OpKind::kYoloDecode: return "yolo_decode";
    case OpKind::kDetectionConcat: return "detection_concat";
    case OpKind::kBoxNms: return "box_nms";
    case OpKind::kRoiAlign: return "roi_align";
    case OpKind::kDeviceCopy: return "device_copy";
  }
  return "unknown";
}

int Graph::push(Node n) {
  n.id = static_cast<int>(nodes_.size());
  for (int in : n.inputs) {
    IGC_CHECK_GE(in, 0);
    IGC_CHECK_LT(in, n.id) << "inputs must precede node " << n.name;
  }
  nodes_.push_back(std::move(n));
  output_ = nodes_.back().id;
  return nodes_.back().id;
}

Node& Graph::node(int id) {
  IGC_CHECK_GE(id, 0);
  IGC_CHECK_LT(id, num_nodes());
  return nodes_[static_cast<size_t>(id)];
}

const Node& Graph::node(int id) const {
  IGC_CHECK_GE(id, 0);
  IGC_CHECK_LT(id, num_nodes());
  return nodes_[static_cast<size_t>(id)];
}

int Graph::add_input(const std::string& name, Shape shape) {
  Node n;
  n.name = name;
  n.kind = OpKind::kInput;
  n.out_shape = std::move(shape);
  return push(std::move(n));
}

int Graph::add_constant(const std::string& name, Tensor value) {
  IGC_CHECK(value.defined()) << name << ": constant needs a bound tensor";
  Node n;
  n.name = name;
  n.kind = OpKind::kConstant;
  n.out_shape = value.shape();
  n.weight = std::move(value);
  return push(std::move(n));
}

int Graph::add_conv2d(const std::string& name, int input, ops::Conv2dParams p,
                      Tensor weight, Tensor bias) {
  p.validate();
  const Node& in = node(input);
  IGC_CHECK(in.out_shape ==
            Shape({p.batch, p.in_channels, p.in_h, p.in_w}))
      << name << ": conv input shape " << in.out_shape.str();
  IGC_CHECK(weight.shape() == Shape({p.out_channels, p.in_channels / p.groups,
                                     p.kernel_h, p.kernel_w}));
  Node n;
  n.name = name;
  n.kind = OpKind::kConv2d;
  n.inputs = {input};
  n.conv = p;
  n.weight = std::move(weight);
  n.bias = std::move(bias);
  n.out_shape = Shape{p.batch, p.out_channels, p.out_h(), p.out_w()};
  return push(std::move(n));
}

int Graph::add_conv2d_transpose(const std::string& name, int input,
                                ops::Conv2dTransposeParams p, Tensor weight,
                                Tensor bias) {
  p.validate();
  const Node& in = node(input);
  IGC_CHECK(in.out_shape == Shape({p.batch, p.in_channels, p.in_h, p.in_w}))
      << name << ": deconv input shape " << in.out_shape.str();
  IGC_CHECK(weight.shape() ==
            Shape({p.in_channels, p.out_channels, p.kernel, p.kernel}));
  Node n;
  n.name = name;
  n.kind = OpKind::kConv2dTranspose;
  n.inputs = {input};
  n.deconv = p;
  n.weight = std::move(weight);
  n.bias = std::move(bias);
  n.out_shape = Shape{p.batch, p.out_channels, p.out_h(), p.out_w()};
  return push(std::move(n));
}

int Graph::add_scale_shift(const std::string& name, int input, Tensor scale,
                           Tensor shift) {
  const Node& in = node(input);
  IGC_CHECK_EQ(in.out_shape.ndim(), 4);
  IGC_CHECK_EQ(scale.numel(), in.out_shape[1]);
  IGC_CHECK_EQ(shift.numel(), in.out_shape[1]);
  Node n;
  n.name = name;
  n.kind = OpKind::kScaleShift;
  n.inputs = {input};
  n.scale = std::move(scale);
  n.shift = std::move(shift);
  n.out_shape = in.out_shape;
  return push(std::move(n));
}

int Graph::add_activation(const std::string& name, int input,
                          ops::Activation act, float alpha) {
  Node n;
  n.name = name;
  n.kind = OpKind::kActivation;
  n.inputs = {input};
  n.act = act;
  n.act_alpha = alpha;
  n.out_shape = node(input).out_shape;
  return push(std::move(n));
}

int Graph::add_add(const std::string& name, int a, int b) {
  IGC_CHECK(node(a).out_shape == node(b).out_shape)
      << name << ": add shape mismatch";
  Node n;
  n.name = name;
  n.kind = OpKind::kAdd;
  n.inputs = {a, b};
  n.out_shape = node(a).out_shape;
  return push(std::move(n));
}

int Graph::add_concat(const std::string& name, const std::vector<int>& inputs) {
  IGC_CHECK(!inputs.empty());
  int64_t c = 0;
  const Shape& first = node(inputs[0]).out_shape;
  for (int in : inputs) {
    const Shape& s = node(in).out_shape;
    IGC_CHECK_EQ(s.ndim(), 4);
    IGC_CHECK_EQ(s[0], first[0]);
    IGC_CHECK_EQ(s[2], first[2]);
    IGC_CHECK_EQ(s[3], first[3]);
    c += s[1];
  }
  Node n;
  n.name = name;
  n.kind = OpKind::kConcat;
  n.inputs = inputs;
  n.out_shape = Shape{first[0], c, first[2], first[3]};
  return push(std::move(n));
}

int Graph::add_pool2d(const std::string& name, int input, ops::Pool2dParams p) {
  const Shape& s = node(input).out_shape;
  IGC_CHECK_EQ(s.ndim(), 4);
  Node n;
  n.name = name;
  n.kind = OpKind::kPool2d;
  n.inputs = {input};
  n.pool = p;
  n.out_shape = Shape{s[0], s[1], p.out_dim(s[2]), p.out_dim(s[3])};
  return push(std::move(n));
}

int Graph::add_global_avg_pool(const std::string& name, int input) {
  const Shape& s = node(input).out_shape;
  IGC_CHECK_EQ(s.ndim(), 4);
  Node n;
  n.name = name;
  n.kind = OpKind::kGlobalAvgPool;
  n.inputs = {input};
  n.out_shape = Shape{s[0], s[1], 1, 1};
  return push(std::move(n));
}

int Graph::add_dense(const std::string& name, int input, ops::DenseParams p,
                     Tensor weight, Tensor bias) {
  const Shape& s = node(input).out_shape;
  IGC_CHECK(s == Shape({p.batch, p.in_features}))
      << name << ": dense input " << s.str();
  IGC_CHECK(weight.shape() == Shape({p.out_features, p.in_features}));
  Node n;
  n.name = name;
  n.kind = OpKind::kDense;
  n.inputs = {input};
  n.dense = p;
  n.weight = std::move(weight);
  n.bias = std::move(bias);
  n.out_shape = Shape{p.batch, p.out_features};
  return push(std::move(n));
}

int Graph::add_flatten(const std::string& name, int input) {
  const Shape& s = node(input).out_shape;
  Node n;
  n.name = name;
  n.kind = OpKind::kFlatten;
  n.inputs = {input};
  n.out_shape = Shape{s[0], s.numel() / s[0]};
  return push(std::move(n));
}

int Graph::add_softmax(const std::string& name, int input) {
  Node n;
  n.name = name;
  n.kind = OpKind::kSoftmax;
  n.inputs = {input};
  n.out_shape = node(input).out_shape;
  return push(std::move(n));
}

int Graph::add_upsample2x(const std::string& name, int input) {
  const Shape& s = node(input).out_shape;
  IGC_CHECK_EQ(s.ndim(), 4);
  Node n;
  n.name = name;
  n.kind = OpKind::kUpsample2x;
  n.inputs = {input};
  n.out_shape = Shape{s[0], s[1], 2 * s[2], 2 * s[3]};
  return push(std::move(n));
}

int Graph::add_ssd_detection(const std::string& name,
                             const std::vector<std::pair<int, int>>& heads,
                             Tensor anchors, int64_t num_classes_incl_bg,
                             ops::MultiboxDetectionParams p) {
  IGC_CHECK(!heads.empty());
  IGC_CHECK_GE(num_classes_incl_bg, 2);
  Node n;
  n.name = name;
  n.kind = OpKind::kSsdDetection;
  n.mbox = p;
  n.ssd_num_classes = num_classes_incl_bg;
  int64_t total_anchors = 0;
  int64_t batch = -1;
  for (const auto& [cls_id, loc_id] : heads) {
    const Shape& cs = node(cls_id).out_shape;
    const Shape& ls = node(loc_id).out_shape;
    IGC_CHECK_EQ(cs.ndim(), 4);
    IGC_CHECK_EQ(ls.ndim(), 4);
    if (batch < 0) batch = cs[0];
    IGC_CHECK_EQ(cs[0], batch);
    IGC_CHECK_EQ(cs[1] % num_classes_incl_bg, 0)
        << name << ": cls channels " << cs[1];
    const int64_t a = cs[1] / num_classes_incl_bg;
    IGC_CHECK_EQ(ls[1], a * 4) << name << ": loc channels " << ls[1];
    IGC_CHECK_EQ(ls[2], cs[2]);
    IGC_CHECK_EQ(ls[3], cs[3]);
    total_anchors += a * cs[2] * cs[3];
    n.inputs.push_back(cls_id);
    n.inputs.push_back(loc_id);
  }
  IGC_CHECK(anchors.shape() == Shape({total_anchors, 4}))
      << name << ": anchors " << anchors.shape().str() << " vs "
      << total_anchors;
  n.anchors = std::move(anchors);
  n.out_shape = Shape{batch, total_anchors, 6};
  return push(std::move(n));
}

int Graph::add_yolo_decode(const std::string& name, int input,
                           ops::YoloDecodeParams p) {
  const Shape& s = node(input).out_shape;
  IGC_CHECK_EQ(s.ndim(), 4);
  const int64_t a = static_cast<int64_t>(p.anchors.size());
  IGC_CHECK_EQ(s[1], a * (5 + p.num_classes));
  Node n;
  n.name = name;
  n.kind = OpKind::kYoloDecode;
  n.inputs = {input};
  n.yolo = p;
  n.out_shape = Shape{s[0], s[2] * s[3] * a, 6};
  return push(std::move(n));
}

int Graph::add_detection_concat(const std::string& name,
                                const std::vector<int>& inputs) {
  IGC_CHECK(!inputs.empty());
  int64_t total = 0;
  const Shape& first = node(inputs[0]).out_shape;
  for (int in : inputs) {
    const Shape& s = node(in).out_shape;
    IGC_CHECK_EQ(s.ndim(), 3);
    IGC_CHECK_EQ(s[0], first[0]);
    IGC_CHECK_EQ(s[2], 6);
    total += s[1];
  }
  Node n;
  n.name = name;
  n.kind = OpKind::kDetectionConcat;
  n.inputs = inputs;
  n.out_shape = Shape{first[0], total, 6};
  return push(std::move(n));
}

int Graph::add_box_nms(const std::string& name, int input, ops::NmsParams p) {
  const Shape& s = node(input).out_shape;
  IGC_CHECK_EQ(s.ndim(), 3);
  IGC_CHECK_EQ(s[2], 6);
  Node n;
  n.name = name;
  n.kind = OpKind::kBoxNms;
  n.inputs = {input};
  n.nms = p;
  n.out_shape = s;
  return push(std::move(n));
}

int Graph::add_roi_align(const std::string& name, int features, int rois,
                         ops::RoiAlignParams p) {
  const Shape& fs = node(features).out_shape;
  const Shape& rs = node(rois).out_shape;
  IGC_CHECK_EQ(fs.ndim(), 4);
  IGC_CHECK_EQ(rs.ndim(), 2);
  IGC_CHECK_EQ(rs[1], 5);
  Node n;
  n.name = name;
  n.kind = OpKind::kRoiAlign;
  n.inputs = {features, rois};
  n.roi = p;
  n.out_shape = Shape{rs[0], fs[1], p.pooled_h, p.pooled_w};
  return push(std::move(n));
}

std::vector<std::vector<int>> Graph::consumers() const {
  std::vector<std::vector<int>> out(nodes_.size());
  for (const Node& n : nodes_) {
    for (int in : n.inputs) out[static_cast<size_t>(in)].push_back(n.id);
  }
  return out;
}

std::vector<bool> Graph::live_mask() const {
  std::vector<bool> live(nodes_.size(), false);
  if (output_ < 0) return live;
  live[static_cast<size_t>(output_)] = true;
  for (int id = num_nodes() - 1; id >= 0; --id) {
    if (!live[static_cast<size_t>(id)]) continue;
    for (int in : node(id).inputs) live[static_cast<size_t>(in)] = true;
  }
  return live;
}

std::vector<int> Graph::conv_node_ids() const {
  std::vector<int> ids;
  for (const Node& n : nodes_) {
    if (n.is_conv()) ids.push_back(n.id);
  }
  return ids;
}

int64_t Graph::total_conv_flops() const {
  int64_t f = 0;
  for (const Node& n : nodes_) {
    if (n.is_conv()) f += n.conv.flops();
  }
  return f;
}

std::string Graph::summary() const {
  // Mark liveness so bypassed pass-through nodes are hidden.
  const std::vector<bool> live = live_mask();
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line), "%4s  %-18s %-28s %-22s %-4s %s\n", "id",
                "op", "name", "shape", "dev", "inputs");
  os << line;
  for (const Node& n : nodes_) {
    if (!live[static_cast<size_t>(n.id)]) continue;
    std::string inputs;
    for (int in : n.inputs) {
      if (!inputs.empty()) inputs += ",";
      inputs += std::to_string(in);
    }
    std::string op(op_kind_name(n.kind));
    if (n.fused_activation) op += "+act";
    std::snprintf(line, sizeof(line), "%4d  %-18s %-28s %-22s %-4s %s\n", n.id,
                  op.c_str(), n.name.substr(0, 27).c_str(),
                  n.out_shape.str().c_str(),
                  n.place == Place::kCpu
                      ? "cpu"
                      : (n.place == Place::kGpu ? "gpu" : "-"),
                  inputs.c_str());
    os << line;
  }
  return os.str();
}

void Graph::validate() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    IGC_CHECK_EQ(n.id, static_cast<int>(i))
        << n.name << ": node id does not match its list position";
    for (int in : n.inputs) {
      IGC_CHECK_GE(in, 0);
      IGC_CHECK_LT(in, n.id) << n.name << ": edge breaks topological order";
    }
    if (n.kind == OpKind::kConstant) {
      IGC_CHECK(n.weight.defined()) << n.name << ": constant without a tensor";
      IGC_CHECK(n.inputs.empty()) << n.name << ": constant with inputs";
      IGC_CHECK(n.weight.shape() == n.out_shape)
          << n.name << ": constant tensor/shape mismatch";
    }
  }
  IGC_CHECK_GE(output_, 0);
  IGC_CHECK_LT(output_, num_nodes());
}

}  // namespace igc::graph
