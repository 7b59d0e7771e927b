#include "ops/vision/nms.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include "core/error.h"
#include "ops/vision/prefix_sum.h"
#include "ops/vision/segmented_sort.h"

namespace igc::ops {
namespace {

constexpr int kBoxLen = 6;  // [class_id, score, x1, y1, x2, y2]

/// Shared greedy suppression over one batch given score-descending order.
/// Returns the kept source rows (already ordered by descending score) and
/// reports how many IoU evaluations were performed (for the cost model).
/// `order` is the full argsort or a prefix of it; position oi is row
/// order[oi]'s rank, which topk counts. A candidate is compared with the
/// kept rows of its own class only (all of them under force_suppress), in
/// the order they were kept, so the evaluations are exactly those of a scan
/// over every kept row that skips the other classes.
std::vector<int64_t> suppress_batch(const float* batch,
                                    const std::vector<int32_t>& order,
                                    const NmsParams& p, int64_t* iou_evals) {
  std::vector<int64_t> kept;
  // Kept rows per class, keyed so that -0 and +0 share a list, as == has
  // them match. A NaN class matches nothing (!= is true for it), so such a
  // row neither scans nor joins a list.
  std::unordered_map<float, std::vector<int64_t>> kept_by_class;
  const int64_t n = static_cast<int64_t>(order.size());
  for (int64_t oi = 0; oi < n; ++oi) {
    const int64_t i = order[static_cast<size_t>(oi)];
    const float* bi = batch + i * kBoxLen;
    if (bi[0] < 0.0f || bi[1] < p.valid_thresh) continue;
    if (p.topk >= 0 && oi >= p.topk) break;
    // The kept rows this candidate is tested against.
    std::vector<int64_t>* rivals = &kept;
    if (!p.force_suppress) {
      rivals = std::isnan(bi[0])
                   ? nullptr
                   : &kept_by_class[bi[0] == 0.0f ? 0.0f : bi[0]];
    }
    bool suppressed = false;
    if (rivals != nullptr) {
      for (int64_t k : *rivals) {
        ++*iou_evals;
        if (box_iou(batch + k * kBoxLen + 2, bi + 2) > p.iou_threshold) {
          suppressed = true;
          break;
        }
      }
    }
    if (suppressed) continue;
    kept.push_back(i);
    if (rivals != nullptr && rivals != &kept) rivals->push_back(i);
  }
  return kept;
}

/// Writes the kept rows to the (all-invalid) output of one batch.
void write_kept(const float* batch, const std::vector<int64_t>& kept,
                const std::vector<int64_t>& positions, float* out_batch) {
  for (size_t j = 0; j < kept.size(); ++j) {
    const float* src = batch + kept[j] * kBoxLen;
    float* dst = out_batch + positions[j] * kBoxLen;
    std::copy(src, src + kBoxLen, dst);
  }
}

}  // namespace

float box_iou(const float* a, const float* b) {
  const float ix1 = std::max(a[0], b[0]);
  const float iy1 = std::max(a[1], b[1]);
  const float ix2 = std::min(a[2], b[2]);
  const float iy2 = std::min(a[3], b[3]);
  const float iw = std::max(0.0f, ix2 - ix1);
  const float ih = std::max(0.0f, iy2 - iy1);
  const float inter = iw * ih;
  const float area_a = std::max(0.0f, a[2] - a[0]) * std::max(0.0f, a[3] - a[1]);
  const float area_b = std::max(0.0f, b[2] - b[0]) * std::max(0.0f, b[3] - b[1]);
  const float uni = area_a + area_b - inter;
  return uni <= 0.0f ? 0.0f : inter / uni;
}

Tensor box_nms_reference(const Tensor& input, const NmsParams& p) {
  int64_t unused = 0;
  return box_nms_reference_counted(input, p, &unused);
}

Tensor box_nms_reference_counted(const Tensor& input, const NmsParams& p,
                                 int64_t* iou_evals) {
  IGC_CHECK_EQ(input.shape().ndim(), 3);
  IGC_CHECK_EQ(input.shape()[2], kBoxLen);
  *iou_evals = 0;
  const int64_t bsz = input.shape()[0];
  const int64_t n = input.shape()[1];
  Tensor out = Tensor::full(input.shape(), -1.0f);
  const float* in = input.data_f32();
  float* o = out.data_f32();
  for (int64_t b = 0; b < bsz; ++b) {
    const float* batch = in + b * n * kBoxLen;
    // Descending stable argsort by score of the rows that can survive. A row
    // with score < valid_thresh sorts after every other row and is skipped,
    // so the sorted survivors are the full argsort's prefix, with the same
    // ranks. A NaN score breaks the ordering; then every row is sorted.
    std::vector<int32_t> order;
    order.reserve(static_cast<size_t>(n));
    bool nan_score = false;
    for (int32_t i = 0; i < n; ++i) {
      const float score = batch[i * kBoxLen + 1];
      nan_score = nan_score || std::isnan(score);
      if (!(score < p.valid_thresh)) order.push_back(i);
    }
    if (nan_score) {
      order.resize(static_cast<size_t>(n));
      std::iota(order.begin(), order.end(), 0);
    }
    std::stable_sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
      return batch[x * kBoxLen + 1] > batch[y * kBoxLen + 1];
    });
    int64_t evals = 0;
    const std::vector<int64_t> kept = suppress_batch(batch, order, p, &evals);
    *iou_evals += evals;
    std::vector<int64_t> positions(kept.size());
    std::iota(positions.begin(), positions.end(), 0);
    write_kept(batch, kept, positions, o + b * n * kBoxLen);
  }
  return out;
}

Tensor box_nms_gpu(sim::GpuSimulator& gpu, const Tensor& input,
                   const NmsParams& p) {
  IGC_CHECK_EQ(input.shape().ndim(), 3);
  IGC_CHECK_EQ(input.shape()[2], kBoxLen);
  const int64_t bsz = input.shape()[0];
  const int64_t n = input.shape()[1];
  const float* in = input.data_f32();

  // Initialize every output row to invalid up front (one coalesced fill, no
  // divergent branches later).
  Tensor out = Tensor::full(input.shape(), -1.0f);
  gpu.launch_elementwise("nms_init_invalid", input.numel(), 0, 0);

  // Stage 1: per-batch segmented argsort of scores (descending), using the
  // Fig. 2 pipeline.
  std::vector<float> scores(static_cast<size_t>(bsz * n));
  for (int64_t i = 0; i < bsz * n; ++i) {
    scores[static_cast<size_t>(i)] = in[i * kBoxLen + 1];
  }
  Segments segs;
  segs.offsets.resize(static_cast<size_t>(bsz) + 1);
  for (int64_t b = 0; b <= bsz; ++b) segs.offsets[static_cast<size_t>(b)] = b * n;
  const std::vector<int32_t> sorted =
      segmented_argsort_gpu(gpu, scores, segs, /*descending=*/true);

  // Stage 2: suppression. One work-group per batch; within a group the
  // pivot loop is sequential while the IoU tests across candidates map onto
  // the SIMD lanes. Cost is charged from the exact evaluation count.
  float* o = out.data_f32();
  int64_t total_evals = 0;
  std::vector<std::vector<int64_t>> all_kept(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    const float* batch = in + b * n * kBoxLen;
    std::vector<int32_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] =
          sorted[static_cast<size_t>(b * n + i)] - static_cast<int32_t>(b * n);
    }
    int64_t evals = 0;
    all_kept[static_cast<size_t>(b)] = suppress_batch(batch, order, p, &evals);
    total_evals += evals;
  }
  {
    sim::KernelLaunch cost;
    cost.name = "nms_suppress";
    cost.flops = 16 * std::max<int64_t>(total_evals, 1);
    cost.dram_read_bytes = 4 * kBoxLen * n * bsz;
    cost.dram_write_bytes = 4 * n * bsz;
    cost.work_items = bsz * std::max<int64_t>(gpu.device().simd_width, 1);
    cost.work_group_size = gpu.device().simd_width;
    cost.compute_efficiency = 0.35;  // lanes share the pivot, minor divergence
    cost.num_global_syncs = 1;
    gpu.clock().charge(gpu.device(), cost);
  }

  // Stage 3: prefix-sum compaction (Fig. 3 pipeline) computes each kept
  // box's output slot; the scatter then runs with no divergence.
  std::vector<float> keep_flags(static_cast<size_t>(bsz * n), 0.0f);
  for (int64_t b = 0; b < bsz; ++b) {
    for (size_t j = 0; j < all_kept[static_cast<size_t>(b)].size(); ++j) {
      // Flag the sorted position of each kept box.
      keep_flags[static_cast<size_t>(b * n) + j] = 1.0f;
    }
  }
  (void)prefix_sum_gpu(gpu, keep_flags);
  for (int64_t b = 0; b < bsz; ++b) {
    const std::vector<int64_t>& kept = all_kept[static_cast<size_t>(b)];
    std::vector<int64_t> positions(kept.size());
    std::iota(positions.begin(), positions.end(), 0);
    write_kept(in + b * n * kBoxLen, kept, positions, o + b * n * kBoxLen);
  }
  gpu.launch_elementwise("nms_scatter", std::max<int64_t>(bsz * n, 1), 1, 8);
  return out;
}

Tensor box_nms_gpu_naive(sim::GpuSimulator& gpu, const Tensor& input,
                         const NmsParams& p) {
  IGC_CHECK_EQ(input.shape().ndim(), 3);
  const int64_t bsz = input.shape()[0];
  const int64_t n = input.shape()[1];
  const float* in = input.data_f32();
  Tensor out = Tensor::full(input.shape(), -1.0f);
  float* o = out.data_f32();

  // Naive sort: one thread per batch segment (massive load imbalance).
  std::vector<float> scores(static_cast<size_t>(bsz * n));
  for (int64_t i = 0; i < bsz * n; ++i) {
    scores[static_cast<size_t>(i)] = in[i * kBoxLen + 1];
  }
  Segments segs;
  segs.offsets.resize(static_cast<size_t>(bsz) + 1);
  for (int64_t b = 0; b <= bsz; ++b) segs.offsets[static_cast<size_t>(b)] = b * n;
  const std::vector<int32_t> sorted =
      segmented_argsort_gpu_naive(gpu, scores, segs, /*descending=*/true);

  // Naive suppression + compaction: one thread per batch does everything
  // sequentially, with divergent branches on every candidate. Latency is
  // the slowest batch's serial work at the single-lane rate.
  int64_t max_evals = 0;
  int64_t max_scan = 0;
  for (int64_t b = 0; b < bsz; ++b) {
    const float* batch = in + b * n * kBoxLen;
    std::vector<int32_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] =
          sorted[static_cast<size_t>(b * n + i)] - static_cast<int32_t>(b * n);
    }
    int64_t evals = 0;
    const std::vector<int64_t> kept = suppress_batch(batch, order, p, &evals);
    // The unoptimized kernel has no top-k short-circuit: it suppresses every
    // candidate and only then truncates, so the charged work is the full
    // no-topk suppression (output is identical).
    if (p.topk >= 0) {
      NmsParams no_topk = p;
      no_topk.topk = -1;
      evals = 0;
      (void)suppress_batch(batch, order, no_topk, &evals);
    }
    max_evals = std::max(max_evals, evals);
    max_scan = std::max(max_scan, n);
    std::vector<int64_t> positions(kept.size());
    std::iota(positions.begin(), positions.end(), 0);
    write_kept(batch, kept, positions, o + b * n * kBoxLen);
  }
  // The unoptimized kernel additionally loops classes in an outer pass and
  // rescans the whole box list per class (class-aware suppression without
  // the segmented layout), so the serial work also scales with the number
  // of distinct classes present. Count them from the input.
  std::set<int> classes;
  for (int64_t i = 0; i < bsz * n; ++i) {
    const float c = in[i * kBoxLen];
    if (c >= 0.0f) classes.insert(static_cast<int>(c));
  }
  const double class_passes = static_cast<double>(std::max<size_t>(classes.size(), 1));

  // 16 scalar ops per IoU test, ~2 per box rescanned per class pass.
  const double serial_flops = 16.0 * static_cast<double>(max_evals) +
                              2.0 * class_passes * static_cast<double>(max_scan);
  const double ms =
      serial_flops / (gpu.device().serial_lane_mflops * 1e6) * 1e3 +
      gpu.device().kernel_launch_us * 1e-3;
  gpu.clock().charge_fixed(ms, "nms_naive_suppress");
  return out;
}

Tensor multibox_prior_reference(const MultiboxPriorParams& p) {
  IGC_CHECK(!p.sizes.empty());
  IGC_CHECK(!p.ratios.empty());
  const int64_t anchors_per_cell =
      static_cast<int64_t>(p.sizes.size() + p.ratios.size()) - 1;
  Tensor out(Shape{p.feature_h * p.feature_w * anchors_per_cell, 4},
             DType::kFloat32);
  float* o = out.data_f32();
  int64_t row = 0;
  for (int64_t y = 0; y < p.feature_h; ++y) {
    const float cy = (static_cast<float>(y) + 0.5f) / static_cast<float>(p.feature_h);
    for (int64_t x = 0; x < p.feature_w; ++x) {
      const float cx = (static_cast<float>(x) + 0.5f) / static_cast<float>(p.feature_w);
      auto emit = [&](float size, float ratio) {
        const float sr = std::sqrt(ratio);
        const float w = size * sr / 2.0f;
        const float h = size / sr / 2.0f;
        o[row * 4 + 0] = cx - w;
        o[row * 4 + 1] = cy - h;
        o[row * 4 + 2] = cx + w;
        o[row * 4 + 3] = cy + h;
        ++row;
      };
      // MXNet convention: (size_i, ratio_0) for all sizes, then
      // (size_0, ratio_j) for j >= 1.
      for (float s : p.sizes) emit(s, p.ratios[0]);
      for (size_t j = 1; j < p.ratios.size(); ++j) emit(p.sizes[0], p.ratios[j]);
    }
  }
  IGC_CHECK_EQ(row, out.shape()[0]);
  return out;
}

namespace detail {

void ssd_decode_box(const float* loc, const float* anchor,
                    const float* variances, float* box_out) {
  const float aw = anchor[2] - anchor[0];
  const float ah = anchor[3] - anchor[1];
  const float acx = (anchor[0] + anchor[2]) * 0.5f;
  const float acy = (anchor[1] + anchor[3]) * 0.5f;
  const float pcx = loc[0] * variances[0] * aw + acx;
  const float pcy = loc[1] * variances[1] * ah + acy;
  const float pw = std::exp(loc[2] * variances[2]) * aw * 0.5f;
  const float ph = std::exp(loc[3] * variances[3]) * ah * 0.5f;
  box_out[0] = pcx - pw;
  box_out[1] = pcy - ph;
  box_out[2] = pcx + pw;
  box_out[3] = pcy + ph;
}

double ssd_skip_below(float valid_thresh) {
  return valid_thresh >= std::numeric_limits<float>::min()
             ? std::log(static_cast<double>(valid_thresh)) - 1e-3
             : -std::numeric_limits<double>::infinity();
}

bool ssd_score_anchor(const float* logit, int64_t num_classes,
                      double skip_below, float valid_thresh, float* e,
                      float* row) {
  const int64_t c1 = num_classes;
  float maxv = -1e30f;
  float top_fg = -std::numeric_limits<float>::infinity();
  bool finite = true;
  for (int64_t c = 0; c < c1; ++c) {
    maxv = std::max(maxv, logit[c]);
    finite = finite && std::isfinite(logit[c]);
    if (c > 0) top_fg = std::max(top_fg, logit[c]);
  }
  if (finite && std::max(logit[0], top_fg) >= -1e30f &&
      static_cast<double>(top_fg - maxv) < skip_below) {
    return false;
  }
  // Softmax, each exp computed once and summed in double.
  double sum = 0.0;
  for (int64_t c = 0; c < c1; ++c) {
    e[c] = std::exp(logit[c] - maxv);
    sum += e[c];
  }
  // Best non-background class, in multibox_decode_reference's order.
  int64_t best_c = 1;
  float best = static_cast<float>(e[1] / sum);
  for (int64_t c = 2; c < c1; ++c) {
    const float v = static_cast<float>(e[c] / sum);
    if (v > best) {
      best = v;
      best_c = c;
    }
  }
  if (best < valid_thresh) return false;  // stays invalid
  row[0] = static_cast<float>(best_c - 1);
  row[1] = best;
  return true;
}

}  // namespace detail

namespace {

/// Shared decode: produces the (B, N, 6) candidate tensor before NMS.
Tensor decode_detections(const Tensor& cls_prob, const Tensor& loc_pred,
                         const Tensor& anchors,
                         const MultiboxDetectionParams& p) {
  IGC_CHECK_EQ(cls_prob.shape().ndim(), 3);
  const int64_t bsz = cls_prob.shape()[0];
  const int64_t num_classes = cls_prob.shape()[1];  // includes background 0
  const int64_t n = cls_prob.shape()[2];
  IGC_CHECK(anchors.shape() == Shape({n, 4}));
  IGC_CHECK(loc_pred.shape() == Shape({bsz, n * 4}));
  IGC_CHECK_GE(num_classes, 2);

  Tensor out = Tensor::full(Shape{bsz, n, kBoxLen}, -1.0f);
  const float* cp = cls_prob.data_f32();
  const float* lp = loc_pred.data_f32();
  const float* an = anchors.data_f32();
  float* o = out.data_f32();
  for (int64_t b = 0; b < bsz; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      // Best non-background class.
      int64_t best_c = 1;
      float best = cp[(b * num_classes + 1) * n + i];
      for (int64_t c = 2; c < num_classes; ++c) {
        const float v = cp[(b * num_classes + c) * n + i];
        if (v > best) {
          best = v;
          best_c = c;
        }
      }
      float* row = o + (b * n + i) * kBoxLen;
      if (best < p.nms.valid_thresh) continue;  // stays invalid
      row[0] = static_cast<float>(best_c - 1);
      row[1] = best;
      detail::ssd_decode_box(lp + (b * n + i) * 4, an + i * 4, p.variances,
                             row + 2);
    }
  }
  return out;
}

}  // namespace

Tensor multibox_decode_reference(const Tensor& cls_prob, const Tensor& loc_pred,
                                 const Tensor& anchors,
                                 const MultiboxDetectionParams& p) {
  return decode_detections(cls_prob, loc_pred, anchors, p);
}

Tensor multibox_detection_reference(const Tensor& cls_prob,
                                    const Tensor& loc_pred,
                                    const Tensor& anchors,
                                    const MultiboxDetectionParams& p) {
  const Tensor decoded = decode_detections(cls_prob, loc_pred, anchors, p);
  return box_nms_reference(decoded, p.nms);
}

Tensor multibox_detection_gpu(sim::GpuSimulator& gpu, const Tensor& cls_prob,
                              const Tensor& loc_pred, const Tensor& anchors,
                              const MultiboxDetectionParams& p) {
  const int64_t bsz = cls_prob.shape()[0];
  const int64_t num_classes = cls_prob.shape()[1];
  const int64_t n = cls_prob.shape()[2];
  // Decode kernel: one work item per anchor (argmax over classes + box
  // transform), fully parallel and branch-free.
  const Tensor decoded = decode_detections(cls_prob, loc_pred, anchors, p);
  gpu.launch_elementwise("multibox_decode", bsz * n,
                         /*flops_per_elem=*/2 * num_classes + 20,
                         /*bytes_per_elem=*/4 * (num_classes + 8));
  return box_nms_gpu(gpu, decoded, p.nms);
}

}  // namespace igc::ops
