#include "graph/shape_infer.h"

#include "core/error.h"

namespace igc::graph {

void validate_binding(const ShapeSpec& spec, int64_t batch, int64_t hw) {
  IGC_CHECK_GE(batch, 1) << "shape binding: batch must be >= 1";
  if (batch != spec.seed_batch) {
    IGC_CHECK(spec.dynamic_batch)
        << "shape binding: batch " << batch
        << " on a model compiled with a static batch of " << spec.seed_batch;
    IGC_CHECK(batch >= spec.min_batch && batch <= spec.max_batch)
        << "shape binding: batch " << batch << " outside declared bounds ["
        << spec.min_batch << ", " << spec.max_batch << "]";
  }
  if (hw != 0 && hw != spec.seed_hw) {
    IGC_CHECK(spec.dynamic_hw)
        << "shape binding: resolution " << hw << "x" << hw
        << " on a model compiled for a static " << spec.seed_hw << "x"
        << spec.seed_hw << " input (detection/segmentation graphs bake their "
           "anchor grids and skip alignment for one resolution)";
    IGC_CHECK(hw >= spec.min_hw && hw <= spec.max_hw)
        << "shape binding: resolution " << hw << " outside declared bounds ["
        << spec.min_hw << ", " << spec.max_hw << "]";
  }
}

namespace {

const Shape& in_shape(const Graph& g, const Node& n, size_t i) {
  return g.node(n.inputs[i]).out_shape;
}

}  // namespace

Graph rebind_shapes(const Graph& g, int64_t batch, int64_t hw) {
  IGC_CHECK_GE(batch, 1);
  IGC_CHECK_GE(hw, 0);
  Graph out = g;
  for (Node& n : out.nodes()) {
    switch (n.kind) {
      case OpKind::kInput:
        // Only the image-style rank-4 inputs are dynamically bound;
        // parameter inputs (e.g. an ROI list) keep their seed shape.
        if (n.out_shape.ndim() == 4) {
          n.out_shape = Shape{batch, n.out_shape[1],
                              hw > 0 ? hw : n.out_shape[2],
                              hw > 0 ? hw : n.out_shape[3]};
        }
        break;
      case OpKind::kConstant:
        break;
      case OpKind::kConv2d: {
        const Shape& s = in_shape(out, n, 0);
        IGC_CHECK_EQ(s[1], n.conv.in_channels)
            << n.name << ": rebinding changed the channel count";
        n.conv.batch = s[0];
        n.conv.in_h = s[2];
        n.conv.in_w = s[3];
        IGC_CHECK(n.conv.out_h() >= 1 && n.conv.out_w() >= 1)
            << n.name << ": input resolution too small — conv output would be "
            << n.conv.out_h() << "x" << n.conv.out_w();
        n.out_shape =
            Shape{s[0], n.conv.out_channels, n.conv.out_h(), n.conv.out_w()};
        break;
      }
      case OpKind::kConv2dTranspose: {
        const Shape& s = in_shape(out, n, 0);
        IGC_CHECK_EQ(s[1], n.deconv.in_channels)
            << n.name << ": rebinding changed the channel count";
        n.deconv.batch = s[0];
        n.deconv.in_h = s[2];
        n.deconv.in_w = s[3];
        n.out_shape = Shape{s[0], n.deconv.out_channels, n.deconv.out_h(),
                            n.deconv.out_w()};
        break;
      }
      case OpKind::kScaleShift:
        IGC_CHECK_EQ(in_shape(out, n, 0)[1], n.scale.numel())
            << n.name << ": rebinding changed the channel count";
        n.out_shape = in_shape(out, n, 0);
        break;
      case OpKind::kActivation:
      case OpKind::kSoftmax:
      case OpKind::kDeviceCopy:
        n.out_shape = in_shape(out, n, 0);
        break;
      case OpKind::kAdd:
        IGC_CHECK(in_shape(out, n, 0) == in_shape(out, n, 1))
            << n.name << ": add shape mismatch after rebinding (skip "
            << "connections must stay aligned — is the resolution divisible "
            << "by the network stride?)";
        n.out_shape = in_shape(out, n, 0);
        break;
      case OpKind::kConcat: {
        const Shape& first = in_shape(out, n, 0);
        int64_t c = 0;
        for (size_t i = 0; i < n.inputs.size(); ++i) {
          const Shape& s = in_shape(out, n, i);
          IGC_CHECK(s[0] == first[0] && s[2] == first[2] && s[3] == first[3])
              << n.name << ": concat branch shapes diverged after rebinding";
          c += s[1];
        }
        n.out_shape = Shape{first[0], c, first[2], first[3]};
        break;
      }
      case OpKind::kPool2d: {
        const Shape& s = in_shape(out, n, 0);
        const int64_t oh = n.pool.out_dim(s[2]);
        const int64_t ow = n.pool.out_dim(s[3]);
        IGC_CHECK(oh >= 1 && ow >= 1)
            << n.name << ": input resolution too small for pooling window";
        n.out_shape = Shape{s[0], s[1], oh, ow};
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const Shape& s = in_shape(out, n, 0);
        n.out_shape = Shape{s[0], s[1], 1, 1};
        break;
      }
      case OpKind::kDense: {
        const Shape& s = in_shape(out, n, 0);
        IGC_CHECK_EQ(s[1], n.dense.in_features)
            << n.name << ": rebinding changed the flattened feature count "
            << "from " << n.dense.in_features << " to " << s[1]
            << " — heads without global pooling support dynamic batch only";
        n.dense.batch = s[0];
        n.out_shape = Shape{s[0], n.dense.out_features};
        break;
      }
      case OpKind::kFlatten: {
        const Shape& s = in_shape(out, n, 0);
        n.out_shape = Shape{s[0], s.numel() / s[0]};
        break;
      }
      case OpKind::kUpsample2x: {
        const Shape& s = in_shape(out, n, 0);
        n.out_shape = Shape{s[0], s[1], 2 * s[2], 2 * s[3]};
        break;
      }
      case OpKind::kSsdDetection: {
        int64_t total_anchors = 0;
        int64_t b = -1;
        for (size_t i = 0; i + 1 < n.inputs.size(); i += 2) {
          const Shape& cs = in_shape(out, n, i);
          const Shape& ls = in_shape(out, n, i + 1);
          if (b < 0) b = cs[0];
          IGC_CHECK_EQ(cs[0], b);
          const int64_t a = cs[1] / n.ssd_num_classes;
          IGC_CHECK(ls[1] == a * 4 && ls[2] == cs[2] && ls[3] == cs[3])
              << n.name << ": SSD head shapes diverged after rebinding";
          total_anchors += a * cs[2] * cs[3];
        }
        IGC_CHECK(n.anchors.shape() == Shape({total_anchors, 4}))
            << n.name << ": input resolution changes the anchor grid ("
            << n.anchors.shape()[0] << " baked anchors vs " << total_anchors
            << " implied) — SSD graphs declare dynamic batch only";
        n.out_shape = Shape{b, total_anchors, 6};
        break;
      }
      case OpKind::kYoloDecode: {
        const Shape& s = in_shape(out, n, 0);
        const int64_t a = static_cast<int64_t>(n.yolo.anchors.size());
        IGC_CHECK_EQ(s[1], a * (5 + n.yolo.num_classes))
            << n.name << ": YOLO head channels diverged after rebinding";
        n.out_shape = Shape{s[0], s[2] * s[3] * a, 6};
        break;
      }
      case OpKind::kDetectionConcat: {
        const Shape& first = in_shape(out, n, 0);
        int64_t total = 0;
        for (size_t i = 0; i < n.inputs.size(); ++i) {
          const Shape& s = in_shape(out, n, i);
          IGC_CHECK_EQ(s[0], first[0]);
          total += s[1];
        }
        n.out_shape = Shape{first[0], total, 6};
        break;
      }
      case OpKind::kBoxNms:
        n.out_shape = in_shape(out, n, 0);
        break;
      case OpKind::kRoiAlign: {
        const Shape& fs = in_shape(out, n, 0);
        const Shape& rs = in_shape(out, n, 1);
        n.out_shape = Shape{rs[0], fs[1], n.roi.pooled_h, n.roi.pooled_w};
        break;
      }
    }
  }
  out.validate();
  return out;
}

}  // namespace igc::graph
