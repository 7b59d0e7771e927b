// Tests for the vision-specific operators (Sec. 3.1): prefix sum,
// segmented argsort, box_nms, multibox, ROIAlign, and YOLO decode.
// Every GPU implementation must match its reference exactly, and the
// optimized variants must beat the naive ones on the simulated clock. The
// host SSD and YOLO decodes split their work over ThreadPool::global(), and
// concurrent callers must still match the serial oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>

#include "core/rng.h"
#include "graph/synthetic.h"
#include "ops/vision/nms.h"
#include "ops/vision/prefix_sum.h"
#include "ops/vision/roi_align.h"
#include "ops/vision/segmented_sort.h"
#include "ops/vision/yolo.h"
#include "sim/simulator.h"

namespace igc::ops {
namespace {

using sim::GpuSimulator;
using sim::PlatformId;
using sim::SimClock;

GpuSimulator make_gpu(SimClock& clock, PlatformId id = PlatformId::kDeepLens) {
  return GpuSimulator(sim::platform(id).gpu, clock);
}

/// Bit-for-bit equality, except that any two NaNs match.
::testing::AssertionResult same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << a.shape().str() << " vs " << b.shape().str();
  }
  const float* x = a.data_f32();
  const float* y = b.data_f32();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << x[i] << " vs " << y[i];
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---- prefix sum ----------------------------------------------------------

TEST(PrefixSum, ReferenceInclusive) {
  auto out = prefix_sum_reference({1, 2, 3, 4});
  EXPECT_EQ(out, (std::vector<float>{1, 3, 6, 10}));
}

TEST(PrefixSum, PaperFigure3Example) {
  // Fig. 3: 18 elements, 5 processors, final row of the figure.
  const std::vector<float> in = {5, 7, 1, 1, 3, 4, 2, 0, 3,
                                 1, 1, 2, 6, 1, 2, 3, 1, 3};
  const std::vector<float> expect = {5,  12, 13, 14, 17, 21, 23, 23, 26,
                                     27, 28, 30, 36, 37, 39, 42, 43, 46};
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock);
  EXPECT_EQ(prefix_sum_gpu(gpu, in, 5), expect);
}

class PrefixSumProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(PrefixSumProperty, GpuMatchesReference) {
  const int64_t n = GetParam();
  Rng rng(static_cast<uint64_t>(n) + 1);
  std::vector<float> in(static_cast<size_t>(n));
  for (float& v : in) v = static_cast<float>(rng.next_int(0, 9));
  const auto expected = prefix_sum_reference(in);
  for (auto id : {PlatformId::kDeepLens, PlatformId::kAiSage, PlatformId::kJetsonNano}) {
    SimClock clock;
    GpuSimulator gpu = make_gpu(clock, id);
    EXPECT_EQ(prefix_sum_gpu(gpu, in), expected);
    SimClock clock2;
    GpuSimulator gpu2 = make_gpu(clock2, id);
    EXPECT_EQ(prefix_sum_gpu_naive(gpu2, in), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSumProperty,
                         ::testing::Values(1, 2, 5, 17, 64, 100, 1000, 4096,
                                           10000));

TEST(PrefixSum, ThreeStageBeatsNaiveOnClock) {
  Rng rng(3);
  std::vector<float> in(100000);
  for (float& v : in) v = rng.next_float(0.0f, 1.0f);
  SimClock opt_clock, naive_clock;
  GpuSimulator opt = make_gpu(opt_clock, PlatformId::kAiSage);
  GpuSimulator naive = make_gpu(naive_clock, PlatformId::kAiSage);
  prefix_sum_gpu(opt, in);
  prefix_sum_gpu_naive(naive, in);
  // Three launches vs log2(n) sync-heavy full passes.
  EXPECT_LT(opt_clock.total_ms() * 3.0, naive_clock.total_ms());
  EXPECT_EQ(opt_clock.events().size(), 3u);
}

TEST(PrefixSum, EmptyInput) {
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock);
  EXPECT_TRUE(prefix_sum_gpu(gpu, {}).empty());
  EXPECT_TRUE(prefix_sum_gpu_naive(gpu, {}).empty());
}

// ---- segmented sort -------------------------------------------------------

Segments uniform_segments(int64_t n, int64_t seg_len) {
  Segments s;
  for (int64_t off = 0; off <= n; off += seg_len) {
    s.offsets.push_back(std::min(off, n));
  }
  if (s.offsets.back() != n) s.offsets.push_back(n);
  return s;
}

Segments random_segments(int64_t n, int64_t num_segs, Rng& rng) {
  std::vector<int64_t> cuts;
  for (int64_t i = 0; i < num_segs - 1; ++i) cuts.push_back(rng.next_int(0, n));
  std::sort(cuts.begin(), cuts.end());
  Segments s;
  s.offsets.push_back(0);
  for (int64_t c : cuts) s.offsets.push_back(c);
  s.offsets.push_back(n);
  return s;
}

TEST(SegmentedSort, ReferenceSortsEachSegment) {
  const std::vector<float> v = {3, 1, 2, /*|*/ 9, 8, /*|*/ 5};
  Segments segs;
  segs.offsets = {0, 3, 5, 6};
  auto idx = segmented_argsort_reference(v, segs);
  EXPECT_EQ(idx, (std::vector<int32_t>{1, 2, 0, 4, 3, 5}));
}

TEST(SegmentedSort, DescendingWithTies) {
  const std::vector<float> v = {1, 2, 2, 3};
  Segments segs;
  segs.offsets = {0, 4};
  auto idx = segmented_argsort_reference(v, segs, true);
  // Ties broken by original index (stable).
  EXPECT_EQ(idx, (std::vector<int32_t>{3, 1, 2, 0}));
}

class SegmentedSortProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, bool>> {};

TEST_P(SegmentedSortProperty, GpuVariantsMatchReference) {
  const auto [n, num_segs, descending] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 31 + num_segs));
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.next_int(0, 50));  // many ties
  const Segments segs = random_segments(n, num_segs, rng);
  const auto expected = segmented_argsort_reference(v, segs, descending);
  for (auto id : {PlatformId::kDeepLens, PlatformId::kAiSage, PlatformId::kJetsonNano}) {
    SimClock c1, c2;
    GpuSimulator g1 = make_gpu(c1, id);
    GpuSimulator g2 = make_gpu(c2, id);
    EXPECT_EQ(segmented_argsort_gpu(g1, v, segs, descending), expected);
    EXPECT_EQ(segmented_argsort_gpu_naive(g2, v, segs, descending), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegmentedSortProperty,
    ::testing::Values(std::make_tuple(10, 1, false),
                      std::make_tuple(100, 7, false),
                      std::make_tuple(100, 7, true),
                      std::make_tuple(1000, 3, false),
                      std::make_tuple(1000, 50, true),
                      std::make_tuple(257, 13, false),
                      std::make_tuple(5000, 2, true),
                      std::make_tuple(64, 64, false)));

TEST(SegmentedSort, EmptySegmentsHandled) {
  const std::vector<float> v = {2, 1};
  Segments segs;
  segs.offsets = {0, 0, 2, 2};  // segments 0 and 2 empty
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock);
  auto idx = segmented_argsort_gpu(gpu, v, segs);
  EXPECT_EQ(idx, (std::vector<int32_t>{1, 0}));
}

TEST(SegmentedSort, SmallBlockSizeForcesManyMergeRounds) {
  Rng rng(5);
  std::vector<float> v(512);
  for (float& x : v) x = rng.next_float(0.0f, 1.0f);
  Segments segs = uniform_segments(512, 100);
  const auto expected = segmented_argsort_reference(v, segs);
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock);
  EXPECT_EQ(segmented_argsort_gpu(gpu, v, segs, false, /*block_size=*/16),
            expected);
  // 512/16 = 32 blocks -> 5 merge rounds + block sort = 6 kernel events.
  EXPECT_EQ(clock.events().size(), 6u);
}

TEST(SegmentedSort, BalancedBeatsNaiveOnSkewedSegments) {
  // One huge segment and many tiny ones: the paper's motivating case.
  Rng rng(9);
  const int64_t n = 20000;
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.next_float(0.0f, 1.0f);
  Segments segs;
  segs.offsets = {0, 18000};
  for (int64_t off = 18000 + 100; off <= n; off += 100) segs.offsets.push_back(off);
  SimClock opt_clock, naive_clock;
  GpuSimulator opt = make_gpu(opt_clock, PlatformId::kAiSage);
  GpuSimulator naive = make_gpu(naive_clock, PlatformId::kAiSage);
  const auto a = segmented_argsort_gpu(opt, v, segs);
  const auto b = segmented_argsort_gpu_naive(naive, v, segs);
  EXPECT_EQ(a, b);
  EXPECT_LT(opt_clock.total_ms() * 5.0, naive_clock.total_ms());
}

// ---- box utilities & NMS ---------------------------------------------------

TEST(BoxIou, KnownValues) {
  const float a[4] = {0, 0, 2, 2};
  const float b[4] = {1, 1, 3, 3};
  EXPECT_NEAR(box_iou(a, b), 1.0f / 7.0f, 1e-6f);
  const float c[4] = {5, 5, 6, 6};
  EXPECT_EQ(box_iou(a, c), 0.0f);
  EXPECT_NEAR(box_iou(a, a), 1.0f, 1e-6f);
}

Tensor make_boxes(int64_t batch, int64_t n, int64_t num_classes, Rng& rng) {
  Tensor t(Shape{batch, n, 6}, DType::kFloat32);
  float* p = t.data_f32();
  for (int64_t i = 0; i < batch * n; ++i) {
    const float x1 = rng.next_float(0.0f, 0.9f);
    const float y1 = rng.next_float(0.0f, 0.9f);
    p[i * 6 + 0] = static_cast<float>(rng.next_int(0, num_classes - 1));
    p[i * 6 + 1] = rng.next_float(0.0f, 1.0f);
    p[i * 6 + 2] = x1;
    p[i * 6 + 3] = y1;
    p[i * 6 + 4] = x1 + rng.next_float(0.05f, 0.3f);
    p[i * 6 + 5] = y1 + rng.next_float(0.05f, 0.3f);
  }
  return t;
}

TEST(BoxNms, SuppressesOverlapsKeepsHighestScore) {
  // Two heavily overlapping boxes + one far away.
  Tensor in = Tensor::from_vector(
      Shape{1, 3, 6},
      {0, 0.9f, 0.0f, 0.0f, 1.0f, 1.0f,
       0, 0.8f, 0.05f, 0.05f, 1.0f, 1.0f,
       0, 0.7f, 5.0f, 5.0f, 6.0f, 6.0f});
  NmsParams p;
  p.iou_threshold = 0.5f;
  Tensor out = box_nms_reference(in, p);
  const float* o = out.data_f32();
  EXPECT_FLOAT_EQ(o[1], 0.9f);   // best kept first
  EXPECT_FLOAT_EQ(o[6 + 1], 0.7f);  // far box second
  EXPECT_FLOAT_EQ(o[12 + 0], -1.0f);  // suppressed row invalid
}

TEST(BoxNms, ClassAwareUnlessForceSuppress) {
  Tensor in = Tensor::from_vector(
      Shape{1, 2, 6},
      {0, 0.9f, 0.0f, 0.0f, 1.0f, 1.0f,
       1, 0.8f, 0.0f, 0.0f, 1.0f, 1.0f});
  NmsParams p;
  p.iou_threshold = 0.5f;
  p.force_suppress = false;
  Tensor out = box_nms_reference(in, p);
  EXPECT_FLOAT_EQ(out.data_f32()[6 + 1], 0.8f);  // different class survives
  p.force_suppress = true;
  Tensor out2 = box_nms_reference(in, p);
  EXPECT_FLOAT_EQ(out2.data_f32()[6 + 0], -1.0f);  // now suppressed
}

TEST(BoxNms, ValidThreshAndTopk) {
  Tensor in = Tensor::from_vector(
      Shape{1, 3, 6},
      {0, 0.9f, 0, 0, 1, 1,
       0, 0.005f, 2, 2, 3, 3,   // below valid_thresh
       0, 0.5f, 4, 4, 5, 5});
  NmsParams p;
  p.valid_thresh = 0.01f;
  Tensor out = box_nms_reference(in, p);
  EXPECT_FLOAT_EQ(out.data_f32()[1], 0.9f);
  EXPECT_FLOAT_EQ(out.data_f32()[6 + 1], 0.5f);
  EXPECT_FLOAT_EQ(out.data_f32()[12], -1.0f);
  p.topk = 1;  // only the best candidate considered
  Tensor out2 = box_nms_reference(in, p);
  EXPECT_FLOAT_EQ(out2.data_f32()[6], -1.0f);
}

class BoxNmsProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, bool>> {};

TEST_P(BoxNmsProperty, GpuVariantsMatchReference) {
  const auto [batch, n, force] = GetParam();
  Rng rng(static_cast<uint64_t>(batch * 100 + n));
  Tensor in = make_boxes(batch, n, 4, rng);
  NmsParams p;
  p.iou_threshold = 0.45f;
  p.force_suppress = force;
  const Tensor expected = box_nms_reference(in, p);
  for (auto id : {PlatformId::kDeepLens, PlatformId::kAiSage, PlatformId::kJetsonNano}) {
    SimClock c1, c2;
    GpuSimulator g1 = make_gpu(c1, id);
    GpuSimulator g2 = make_gpu(c2, id);
    EXPECT_EQ(box_nms_gpu(g1, in, p).max_abs_diff(expected), 0.0f);
    EXPECT_EQ(box_nms_gpu_naive(g2, in, p).max_abs_diff(expected), 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, BoxNmsProperty,
                         ::testing::Values(std::make_tuple(1, 50, false),
                                           std::make_tuple(1, 50, true),
                                           std::make_tuple(4, 200, false),
                                           std::make_tuple(2, 1000, true)));

TEST(BoxNms, OptimizedBeatsNaiveOnClock) {
  Rng rng(77);
  Tensor in = make_boxes(1, 5000, 20, rng);
  NmsParams p;
  SimClock c1, c2;
  GpuSimulator g1 = make_gpu(c1, PlatformId::kAiSage);
  GpuSimulator g2 = make_gpu(c2, PlatformId::kAiSage);
  box_nms_gpu(g1, in, p);
  box_nms_gpu_naive(g2, in, p);
  EXPECT_LT(c1.total_ms() * 2.0, c2.total_ms());
}

/// The oracle for the CPU NMS: the reference before it sorted only the rows
/// that can survive and kept per-class lists. Every row is argsorted, and
/// each candidate scans every kept row, skipping other classes.
Tensor box_nms_full_sort(const Tensor& input, const NmsParams& p,
                         int64_t* iou_evals) {
  *iou_evals = 0;
  const int64_t bsz = input.shape()[0];
  const int64_t n = input.shape()[1];
  Tensor out = Tensor::full(input.shape(), -1.0f);
  for (int64_t b = 0; b < bsz; ++b) {
    const float* batch = input.data_f32() + b * n * 6;
    std::vector<int32_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
      return batch[x * 6 + 1] > batch[y * 6 + 1];
    });
    std::vector<int64_t> kept;
    for (int64_t oi = 0; oi < n; ++oi) {
      const int64_t i = order[static_cast<size_t>(oi)];
      const float* bi = batch + i * 6;
      if (bi[0] < 0.0f || bi[1] < p.valid_thresh) continue;
      if (p.topk >= 0 && oi >= p.topk) break;
      bool suppressed = false;
      for (int64_t k : kept) {
        const float* bk = batch + k * 6;
        if (!p.force_suppress && bk[0] != bi[0]) continue;
        ++*iou_evals;
        if (box_iou(bk + 2, bi + 2) > p.iou_threshold) {
          suppressed = true;
          break;
        }
      }
      if (!suppressed) kept.push_back(i);
    }
    float* o = out.data_f32() + b * n * 6;
    for (size_t j = 0; j < kept.size(); ++j) {
      std::copy(batch + kept[j] * 6, batch + kept[j] * 6 + 6, o + j * 6);
    }
  }
  return out;
}

// Sorting only the rows at or above valid_thresh, and scanning per-class
// kept lists, must keep the full sort's output and IoU count: NaN scores
// (which make the whole batch sort), NaN, -0 and +0 classes, negative
// classes with high scores (they hold sorted positions that topk counts),
// tied scores and scores exactly at the threshold, across topk and
// force_suppress.
TEST(BoxNms, FilteredSortMatchesFullSort) {
  const float classes[] = {0.0f, 1.0f, 2.0f, 3.0f, -0.0f, kNan, -1.0f, -2.0f};
  Rng rng(404);
  for (int trial = 0; trial < 24; ++trial) {
    const int64_t bsz = 2;
    const int64_t n = 40 + 60 * (trial % 4);
    const bool nan_scores = trial % 3 == 0;
    Tensor in(Shape{bsz, n, 6}, DType::kFloat32);
    for (int64_t i = 0; i < bsz * n; ++i) {
      float* row = in.data_f32() + i * 6;
      row[0] = classes[rng.next_below(std::size(classes))];
      switch (rng.next_below(6)) {
        case 0:  // tie on a coarse grid
          row[1] = 0.1f * static_cast<float>(rng.next_below(10));
          break;
        case 1:  // at or just below valid_thresh
          row[1] = rng.next_below(2) == 0 ? 0.01f : 0.005f;
          break;
        case 2:
          row[1] = nan_scores && rng.next_below(4) == 0 ? kNan : 0.0f;
          break;
        default:
          row[1] = rng.next_float(0.0f, 1.0f);
          break;
      }
      // Boxes crowd one corner, so suppression has work to do.
      const float x1 = rng.next_float(0.0f, 0.3f);
      const float y1 = rng.next_float(0.0f, 0.3f);
      row[2] = x1;
      row[3] = y1;
      row[4] = x1 + rng.next_float(0.1f, 0.4f);
      row[5] = y1 + rng.next_float(0.1f, 0.4f);
    }
    for (int64_t topk : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{400}}) {
      for (bool force : {false, true}) {
        for (float thresh : {0.01f, 0.0f, 0.5f}) {
          NmsParams p;
          p.iou_threshold = 0.4f;
          p.valid_thresh = thresh;
          p.topk = topk;
          p.force_suppress = force;
          int64_t evals = -1;
          int64_t want_evals = -2;
          const Tensor got = box_nms_reference_counted(in, p, &evals);
          const Tensor want = box_nms_full_sort(in, p, &want_evals);
          EXPECT_TRUE(same_bits(got, want))
              << "trial " << trial << " topk " << topk << " force " << force
              << " valid_thresh " << thresh;
          EXPECT_EQ(evals, want_evals)
              << "trial " << trial << " topk " << topk << " force " << force
              << " valid_thresh " << thresh;
        }
      }
    }
  }
}

// ---- multibox --------------------------------------------------------------

TEST(MultiboxPrior, CountAndCenters) {
  MultiboxPriorParams p;
  p.feature_h = 2;
  p.feature_w = 2;
  p.sizes = {0.2f, 0.4f};
  p.ratios = {1.0f, 2.0f};
  Tensor priors = multibox_prior_reference(p);
  // A = 2 + 2 - 1 = 3 anchors per cell, 4 cells.
  EXPECT_EQ(priors.shape(), Shape({12, 4}));
  // First anchor of first cell: center (0.25, 0.25), size 0.2, ratio 1.
  const float* a = priors.data_f32();
  EXPECT_NEAR(a[0], 0.25f - 0.1f, 1e-6f);
  EXPECT_NEAR(a[1], 0.25f - 0.1f, 1e-6f);
  EXPECT_NEAR(a[2], 0.25f + 0.1f, 1e-6f);
}

TEST(MultiboxPrior, RatioStretchesWidth) {
  MultiboxPriorParams p;
  p.sizes = {0.5f};
  p.ratios = {1.0f, 4.0f};
  Tensor priors = multibox_prior_reference(p);
  const float* a = priors.data_f32();
  const float w0 = a[2] - a[0];
  const float w1 = a[4 + 2] - a[4 + 0];
  const float h1 = a[4 + 3] - a[4 + 1];
  EXPECT_NEAR(w1 / w0, 2.0f, 1e-5f);  // sqrt(4) = 2x wider
  EXPECT_NEAR(w1 * 0.25f, h1, 1e-5f);
}

TEST(MultiboxDetection, DecodeZeroDeltasReproducesAnchor) {
  const int64_t n = 4;
  Tensor anchors = multibox_prior_reference(
      {2, 2, {0.3f}, {1.0f}});
  ASSERT_EQ(anchors.shape()[0], n);
  Tensor cls = Tensor::zeros(Shape{1, 3, n});
  // Anchor 2 strongly class 1 (index 2 in prob rows).
  cls.data_f32()[1 * n + 2] = 0.9f;
  Tensor loc = Tensor::zeros(Shape{1, n * 4});
  MultiboxDetectionParams p;
  Tensor out = multibox_detection_reference(cls, cls.reshape(Shape{1, 3 * n})
                                                     .defined()
                                                ? loc
                                                : loc,
                                            anchors, p);
  const float* o = out.data_f32();
  EXPECT_FLOAT_EQ(o[0], 0.0f);  // class_id 0 (= argmax 1 - 1)
  EXPECT_FLOAT_EQ(o[1], 0.9f);
  // Zero deltas: decoded box equals the anchor.
  const float* a = anchors.data_f32() + 2 * 4;
  EXPECT_NEAR(o[2], a[0], 1e-5f);
  EXPECT_NEAR(o[5], a[3], 1e-5f);
}

TEST(MultiboxDetection, GpuMatchesReference) {
  Rng rng(41);
  const int64_t n = 100;
  MultiboxPriorParams pp;
  pp.feature_h = 10;
  pp.feature_w = 10;
  pp.sizes = {0.2f};
  pp.ratios = {1.0f};
  Tensor anchors = multibox_prior_reference(pp);
  ASSERT_EQ(anchors.shape()[0], n);
  Tensor cls = Tensor::random_uniform(Shape{2, 5, n}, rng, 0.0f, 1.0f);
  Tensor loc = Tensor::random_normal(Shape{2, n * 4}, rng, 0.5f);
  MultiboxDetectionParams p;
  const Tensor expected = multibox_detection_reference(cls, loc, anchors, p);
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock, PlatformId::kJetsonNano);
  const Tensor got = multibox_detection_gpu(gpu, cls, loc, anchors, p);
  EXPECT_EQ(got.max_abs_diff(expected), 0.0f);
  EXPECT_GT(clock.total_ms(), 0.0);
}

// ---- SSD detection straight from heads --------------------------------------

/// One SSD scale: class logits (B, A*C, H, W) and deltas (B, A*4, H, W).
struct SsdHead {
  Tensor cls;
  Tensor loc;
};

/// The oracle, the executor's previous path: assemble (B, C, N) softmax
/// probabilities and (B, N*4) deltas from the heads, then decode them with
/// multibox_decode_reference.
Tensor assemble_and_decode(const std::vector<SsdHead>& heads, int64_t c1,
                           const Tensor& anchors,
                           const MultiboxDetectionParams& p) {
  const int64_t bsz = heads[0].cls.shape()[0];
  const int64_t total = anchors.shape()[0];
  Tensor cls_prob = Tensor::zeros(Shape{bsz, c1, total});
  Tensor loc_pred = Tensor::zeros(Shape{bsz, total * 4});
  int64_t anchor_off = 0;
  for (const SsdHead& h : heads) {
    const Shape& cs = h.cls.shape();
    const int64_t a = cs[1] / c1;
    const int64_t gh = cs[2];
    const int64_t gw = cs[3];
    const float* cp = h.cls.data_f32();
    const float* lp = h.loc.data_f32();
    for (int64_t b = 0; b < bsz; ++b) {
      for (int64_t y = 0; y < gh; ++y) {
        for (int64_t x = 0; x < gw; ++x) {
          for (int64_t ai = 0; ai < a; ++ai) {
            const int64_t anchor = anchor_off + ((y * gw + x) * a + ai);
            float maxv = -1e30f;
            for (int64_t c = 0; c < c1; ++c) {
              maxv = std::max(maxv,
                              cp[((b * a * c1 + ai * c1 + c) * gh + y) * gw + x]);
            }
            double sum = 0.0;
            for (int64_t c = 0; c < c1; ++c) {
              sum += std::exp(
                  cp[((b * a * c1 + ai * c1 + c) * gh + y) * gw + x] - maxv);
            }
            for (int64_t c = 0; c < c1; ++c) {
              const float e = std::exp(
                  cp[((b * a * c1 + ai * c1 + c) * gh + y) * gw + x] - maxv);
              cls_prob.data_f32()[(b * c1 + c) * total + anchor] =
                  static_cast<float>(e / sum);
            }
            for (int64_t d = 0; d < 4; ++d) {
              loc_pred.data_f32()[b * total * 4 + anchor * 4 + d] =
                  lp[((b * a * 4 + ai * 4 + d) * gh + y) * gw + x];
            }
          }
        }
      }
    }
    anchor_off += a * gh * gw;
  }
  EXPECT_EQ(anchor_off, total);
  return multibox_decode_reference(cls_prob, loc_pred, anchors, p);
}

/// Decodes materialized heads scale by scale, as the executor does with
/// numerics on.
Tensor decode_tensor_heads(const std::vector<SsdHead>& heads, int64_t c1,
                           const Tensor& anchors,
                           const MultiboxDetectionParams& p) {
  Tensor out = Tensor::full(
      Shape{heads[0].cls.shape()[0], anchors.shape()[0], 6}, -1.0f);
  int64_t anchor_off = 0;
  for (const SsdHead& h : heads) {
    SsdHeadView v;
    const float* lp = h.loc.data_f32();
    v.loc = [lp](int64_t i) { return lp[i]; };
    v.anchors_per_cell = h.cls.shape()[1] / c1;
    v.height = h.cls.shape()[2];
    v.width = h.cls.shape()[3];
    ssd_decode_head(SsdTensorLogits(h.cls, c1), v, c1, anchor_off, anchors,
                    p, out);
    anchor_off += v.anchors_per_cell * v.height * v.width;
  }
  EXPECT_EQ(anchor_off, anchors.shape()[0]);
  return out;
}

/// The oracle for the stream source: the eager in-order fill the executor
/// used to run before decoding.
Tensor synthesize_ssd_cls_eager(const Shape& shape, int64_t num_classes,
                                Rng& rng) {
  Tensor t(shape, DType::kFloat32);
  const int64_t b = shape[0];
  const int64_t channels = shape[1];
  const int64_t hw = shape.numel() / (b * channels);
  float* p = t.data_f32();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ch = 0; ch < channels; ++ch) {
      const int64_t cls = ch % num_classes;
      for (int64_t i = 0; i < hw; ++i) {
        float v;
        if (cls == 0) {
          v = 6.0f;  // strong background logit
        } else if (rng.next_double() < 0.002) {
          v = rng.next_float(2.0f, 7.0f);  // a genuine detection
        } else {
          v = rng.next_float(-6.0f, -2.0f);
        }
        p[(bi * channels + ch) * hw + i] = v;
      }
    }
  }
  return t;
}

Tensor random_anchors(int64_t n, Rng& rng) {
  Tensor t(Shape{n, 4}, DType::kFloat32);
  for (int64_t i = 0; i < n; ++i) {
    float* a = t.data_f32() + i * 4;
    a[0] = rng.next_float(0.0f, 0.7f);
    a[1] = rng.next_float(0.0f, 0.7f);
    a[2] = a[0] + rng.next_float(0.05f, 0.3f);
    a[3] = a[1] + rng.next_float(0.05f, 0.3f);
  }
  return t;
}

int64_t valid_rows(const Tensor& boxes) {
  int64_t n = 0;
  for (int64_t i = 0; i < boxes.numel() / 6; ++i) {
    if (!(boxes.data_f32()[i * 6] < 0.0f)) ++n;
  }
  return n;
}

/// (anchors per cell, height, width) of each scale of a small SSD.
struct Scale {
  int64_t a, h, w;
};
const std::vector<Scale> kSsdScales = {{4, 8, 8}, {6, 4, 4}, {4, 2, 2}};

int64_t total_anchors(const std::vector<Scale>& scales) {
  int64_t n = 0;
  for (const Scale& s : scales) n += s.a * s.h * s.w;
  return n;
}

/// SSD heads filled in order from `rng`, per head its class logits and then
/// its deltas.
std::vector<SsdHead> eager_ssd_heads(const std::vector<Scale>& scales,
                                     int64_t bsz, int64_t c1, Rng& rng) {
  std::vector<SsdHead> heads;
  for (const Scale& s : scales) {
    SsdHead h;
    h.cls = synthesize_ssd_cls_eager(Shape{bsz, s.a * c1, s.h, s.w}, c1, rng);
    h.loc = Tensor::random_normal(Shape{bsz, s.a * 4, s.h, s.w}, rng, 0.3f);
    heads.push_back(std::move(h));
  }
  return heads;
}

/// The shapes-only recipe the executor runs: per head, the class-logit
/// stream and then the deltas, each read on demand from a copy of one Rng
/// that then jumps past them.
struct SsdStreams {
  std::vector<graph::SyntheticSsdCls> cls;
  std::vector<graph::SyntheticNormal> loc;

  SsdStreams(const std::vector<Scale>& scales, int64_t bsz, int64_t c1,
             Rng& rng) {
    for (const Scale& s : scales) {
      cls.emplace_back(rng, Shape{bsz, s.a * c1, s.h, s.w}, c1);
      rng.discard(cls.back().draws());
      loc.emplace_back(rng, 0.3f);
      rng.discard(2 * static_cast<uint64_t>(bsz * s.a * 4 * s.h * s.w));
    }
  }

  Tensor decode(const std::vector<Scale>& scales, int64_t bsz, int64_t c1,
                const Tensor& anchors,
                const MultiboxDetectionParams& p) const {
    Tensor got = Tensor::full(Shape{bsz, anchors.shape()[0], 6}, -1.0f);
    int64_t anchor_off = 0;
    for (size_t i = 0; i < scales.size(); ++i) {
      const Scale& s = scales[i];
      SsdHeadView v;
      v.loc = loc[i];
      v.anchors_per_cell = s.a;
      v.height = s.h;
      v.width = s.w;
      ssd_decode_head(cls[i], v, c1, anchor_off, anchors, p, got);
      anchor_off += s.a * s.h * s.w;
    }
    return got;
  }
};

/// Against heads filled in order from the same seed, the streams give
/// every logit and delta of the eager fill, every finite gap bound holds on
/// the logits it stands for, both generators end at the same draw, and the
/// decode matches at thresholds above and below the stream's one-draw bound
/// (valid_thresh = 1e-4 reads every anchor's logits).
void expect_stream_decode_matches_eager(const std::vector<Scale>& scales,
                                        int64_t bsz, uint64_t seed) {
  const int64_t c1 = 21;
  const Tensor anchors = [&] {
    Rng rng(5);
    return random_anchors(total_anchors(scales), rng);
  }();
  Rng eager(seed);
  const std::vector<SsdHead> heads = eager_ssd_heads(scales, bsz, c1, eager);
  Rng lazy(seed);
  const SsdStreams streams(scales, bsz, c1, lazy);
  const auto& cls = streams.cls;
  const auto& loc = streams.loc;
  EXPECT_EQ(eager.next_u64(), lazy.next_u64());
  std::vector<float> logit(static_cast<size_t>(c1));
  for (size_t i = 0; i < scales.size(); ++i) {
    const Scale& s = scales[i];
    const int64_t plane = s.h * s.w;
    for (int64_t b = 0; b < bsz; ++b) {
      for (int64_t ai = 0; ai < s.a; ++ai) {
        for (int64_t cell = 0; cell < plane; ++cell) {
          cls[i].logits(b, ai, cell, logit.data());
          const float* fill = heads[i].cls.data_f32() +
                              (b * s.a + ai) * c1 * plane + cell;
          float top_fg = -kInf;
          for (int64_t c = 0; c < c1; ++c) {
            ASSERT_EQ(logit[static_cast<size_t>(c)], fill[c * plane])
                << "scale " << i << " batch " << b << " anchor " << ai
                << " cell " << cell << " class " << c;
            if (c > 0) top_fg = std::max(top_fg, fill[c * plane]);
          }
          const double bound = cls[i].gap_bound(b, ai, cell);
          if (!std::isinf(bound)) {
            ASSERT_LE(top_fg - std::max(fill[0], top_fg), bound);
          }
        }
      }
    }
    for (int64_t j = 0; j < heads[i].loc.numel(); ++j) {
      ASSERT_EQ(loc[i](j), heads[i].loc.data_f32()[j])
          << "scale " << i << " delta " << j;
    }
  }
  for (float thresh : {0.0f, 1e-4f, 0.01f, 0.5f}) {
    MultiboxDetectionParams p;
    p.nms.valid_thresh = thresh;
    const Tensor got = streams.decode(scales, bsz, c1, anchors, p);
    const Tensor want = assemble_and_decode(heads, c1, anchors, p);
    EXPECT_TRUE(same_bits(got, want))
        << "seed " << seed << " valid_thresh " << thresh;
    if (thresh == 0.01f) {
      EXPECT_GT(valid_rows(want), 0);
    }
  }
}

TEST(SsdDecodeHeads, MatchesAssemblyOnSynthesizedHeads) {
  for (uint64_t seed : {1ull, 2ull, 0xbe5cull}) {
    expect_stream_decode_matches_eager(kSsdScales, /*bsz=*/2, seed);
  }
}

/// The heads of SSD_MobileNet1.0 at 512: (anchors per cell, height, width)
/// per scale, 24,564 anchors over 21 classes.
const std::vector<Scale> kSsdMobileNet512 = {
    {4, 64, 64}, {6, 32, 32}, {6, 16, 16}, {6, 8, 8},
    {6, 4, 4},   {4, 2, 2},   {4, 1, 1}};

TEST(SsdDecodeHeads, StreamMatchesEagerFillAtSsdMobileNet512) {
  EXPECT_EQ(total_anchors(kSsdMobileNet512), 24564);
  expect_stream_decode_matches_eager(kSsdMobileNet512, /*bsz=*/1, 3);
  expect_stream_decode_matches_eager(kSsdMobileNet512, /*bsz=*/2, 0x5eed);
}

// Logits that break the skip bound's premises must run the full softmax:
// NaN, +-inf, anchors whose every logit lies below the running max's
// initial -1e30f, tied classes, and thresholds of 0, 1 and NaN.
TEST(SsdDecodeHeads, MatchesAssemblyOnAdversarialLogits) {
  const int64_t c1 = 5;
  const int64_t bsz = 2;
  const std::vector<Scale> scales = {{3, 6, 5}, {2, 3, 3}};
  const float specials[] = {kNan, kInf, -kInf, 3e38f, -3e38f, -2e30f,
                            -1e30f, 0.0f, -0.0f};
  Rng rng(77);
  const Tensor anchors = random_anchors(total_anchors(scales), rng);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SsdHead> heads;
    for (const Scale& s : scales) {
      SsdHead h;
      h.cls = Tensor::random_normal(Shape{bsz, s.a * c1, s.h, s.w}, rng, 4.0f);
      h.loc = Tensor::random_normal(Shape{bsz, s.a * 4, s.h, s.w}, rng, 0.3f);
      const int64_t plane = s.h * s.w;
      for (int64_t b = 0; b < bsz; ++b) {
        for (int64_t ai = 0; ai < s.a; ++ai) {
          for (int64_t cell = 0; cell < plane; ++cell) {
            auto logit = [&](int64_t c) -> float& {
              return h.cls.data_f32()[((b * s.a + ai) * c1 + c) * plane + cell];
            };
            switch (rng.next_below(6)) {
              case 0:  // one special logit
                logit(static_cast<int64_t>(rng.next_below(c1))) =
                    specials[rng.next_below(std::size(specials))];
                break;
              case 1:  // every logit below -1e30f
                for (int64_t c = 0; c < c1; ++c) {
                  logit(c) = rng.next_float(-3e38f, -1.5e30f);
                }
                break;
              case 2: {  // all classes tied
                const float v = rng.next_float(-5.0f, 5.0f);
                for (int64_t c = 0; c < c1; ++c) logit(c) = v;
                break;
              }
              case 3:  // two foreground classes tied for best
                logit(1) = logit(3) = rng.next_float(-1.0f, 8.0f);
                break;
              case 4:  // background dominates: the bound decides
                logit(0) = rng.next_float(4.0f, 12.0f);
                break;
              default:
                break;
            }
          }
        }
      }
      heads.push_back(std::move(h));
    }
    for (float thresh : {0.0f, 0.01f, 0.2f, 1.0f, -0.5f, kNan}) {
      MultiboxDetectionParams p;
      p.nms.valid_thresh = thresh;
      EXPECT_TRUE(same_bits(decode_tensor_heads(heads, c1, anchors, p),
                            assemble_and_decode(heads, c1, anchors, p)))
          << "trial " << trial << " valid_thresh " << thresh;
    }
  }
}

// ---- ROIAlign ---------------------------------------------------------------

TEST(RoiAlign, ConstantFeatureGivesConstantOutput) {
  Tensor feat = Tensor::full(Shape{1, 2, 8, 8}, 3.0f);
  Tensor rois = Tensor::from_vector(Shape{1, 5}, {0, 1, 1, 6, 6});
  RoiAlignParams p;
  p.pooled_h = p.pooled_w = 2;
  Tensor out = roi_align_reference(feat, rois, p);
  EXPECT_EQ(out.shape(), Shape({1, 2, 2, 2}));
  for (float v : out.span_f32()) EXPECT_NEAR(v, 3.0f, 1e-5f);
}

TEST(RoiAlign, LinearRampIsInterpolatedExactly) {
  // f(y, x) = x: bilinear sampling of a linear function is exact.
  Tensor feat = Tensor::zeros(Shape{1, 1, 8, 8});
  for (int64_t y = 0; y < 8; ++y) {
    for (int64_t x = 0; x < 8; ++x) {
      feat.at4(0, 0, y, x) = static_cast<float>(x);
    }
  }
  Tensor rois = Tensor::from_vector(Shape{1, 5}, {0, 2, 2, 6, 6});
  RoiAlignParams p;
  p.pooled_h = p.pooled_w = 2;
  p.sampling_ratio = 2;
  Tensor out = roi_align_reference(feat, rois, p);
  // Bin centers along x: 3 and 5.
  EXPECT_NEAR(out.data_f32()[0], 3.0f, 1e-5f);
  EXPECT_NEAR(out.data_f32()[1], 5.0f, 1e-5f);
}

TEST(RoiAlign, GpuMatchesReferenceAndChargesTime) {
  Rng rng(55);
  Tensor feat = Tensor::random_uniform(Shape{2, 4, 16, 16}, rng);
  Tensor rois = Tensor::from_vector(
      Shape{3, 5}, {0, 1, 1, 10, 10, 1, 0, 0, 15, 15, 0, 4, 6, 9, 12});
  RoiAlignParams p;
  const Tensor expected = roi_align_reference(feat, rois, p);
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock);
  const Tensor got = roi_align_gpu(gpu, feat, rois, p);
  EXPECT_EQ(got.max_abs_diff(expected), 0.0f);
  EXPECT_GT(clock.total_ms(), 0.0);
}

// ---- YOLO decode ------------------------------------------------------------

TEST(YoloDecode, CenterCellZeroActivation) {
  YoloDecodeParams p;
  p.num_classes = 2;
  p.anchors = {{32.0f, 64.0f}};
  p.input_size = 128;
  p.conf_thresh = 0.0f;
  Tensor head = Tensor::zeros(Shape{1, 7, 1, 1});  // 1 anchor * (5+2), 1x1 grid
  Tensor out = yolo_decode_reference(head, p);
  const float* o = out.data_f32();
  // sigmoid(0) = 0.5: center (0.5, 0.5); w = 32/128 = 0.25, h = 0.5.
  EXPECT_FLOAT_EQ(o[1], 0.25f);  // obj * best = 0.5 * 0.5
  EXPECT_NEAR(o[2], 0.5f - 0.125f, 1e-5f);
  EXPECT_NEAR(o[3], 0.5f - 0.25f, 1e-5f);
  EXPECT_NEAR(o[4], 0.5f + 0.125f, 1e-5f);
}

TEST(YoloDecode, ConfThreshMarksInvalid) {
  YoloDecodeParams p;
  p.num_classes = 2;
  p.anchors = {{32.0f, 32.0f}};
  p.conf_thresh = 0.9f;  // sigmoid(0)^2 = 0.25 < 0.9
  Tensor head = Tensor::zeros(Shape{1, 7, 2, 2});
  Tensor out = yolo_decode_reference(head, p);
  for (int64_t i = 0; i < out.shape()[1]; ++i) {
    EXPECT_FLOAT_EQ(out.data_f32()[i * 6], -1.0f);
  }
}

TEST(YoloDecode, GpuMatchesReference) {
  Rng rng(66);
  YoloDecodeParams p;
  p.num_classes = 20;
  p.anchors = {{10, 13}, {16, 30}, {33, 23}};
  p.input_size = 416;
  Tensor head = Tensor::random_normal(Shape{1, 3 * 25, 13, 13}, rng, 1.0f);
  const Tensor expected = yolo_decode_reference(head, p);
  SimClock clock;
  GpuSimulator gpu = make_gpu(clock, PlatformId::kJetsonNano);
  EXPECT_EQ(yolo_decode_gpu(gpu, head, p).max_abs_diff(expected), 0.0f);
}

/// The oracle, the decode before its early exit: every class sigmoid of
/// every (cell, anchor), then the threshold test.
Tensor yolo_decode_full(const Tensor& head, const YoloDecodeParams& p) {
  auto sigmoid = [](float x) { return 1.0f / (1.0f + std::exp(-x)); };
  const int64_t bsz = head.shape()[0];
  const int64_t a = static_cast<int64_t>(p.anchors.size());
  const int64_t per_anchor = 5 + p.num_classes;
  const int64_t gh = head.shape()[2];
  const int64_t gw = head.shape()[3];
  const int64_t n = gh * gw * a;
  Tensor out = Tensor::full(Shape{bsz, n, 6}, -1.0f);
  const float* in = head.data_f32();
  float* o = out.data_f32();
  const float inv_input = 1.0f / static_cast<float>(p.input_size);
  for (int64_t b = 0; b < bsz; ++b) {
    for (int64_t ai = 0; ai < a; ++ai) {
      for (int64_t gy = 0; gy < gh; ++gy) {
        for (int64_t gx = 0; gx < gw; ++gx) {
          auto at = [&](int64_t ch) {
            return in[((b * a * per_anchor + ai * per_anchor + ch) * gh + gy) *
                          gw +
                      gx];
          };
          const float obj = sigmoid(at(4));
          int64_t best_c = 0;
          float best = sigmoid(at(5));
          for (int64_t c = 1; c < p.num_classes; ++c) {
            const float v = sigmoid(at(5 + c));
            if (v > best) {
              best = v;
              best_c = c;
            }
          }
          const float score = obj * best;
          const int64_t row_idx = (gy * gw + gx) * a + ai;
          float* row = o + (b * n + row_idx) * 6;
          if (score < p.conf_thresh) continue;
          const float cx = (static_cast<float>(gx) + sigmoid(at(0))) /
                           static_cast<float>(gw);
          const float cy = (static_cast<float>(gy) + sigmoid(at(1))) /
                           static_cast<float>(gh);
          const float bw = p.anchors[static_cast<size_t>(ai)].first *
                           std::exp(at(2)) * inv_input * 0.5f;
          const float bh = p.anchors[static_cast<size_t>(ai)].second *
                           std::exp(at(3)) * inv_input * 0.5f;
          row[0] = static_cast<float>(best_c);
          row[1] = score;
          row[2] = cx - bw;
          row[3] = cy - bh;
          row[4] = cx + bw;
          row[5] = cy + bh;
        }
      }
    }
  }
  return out;
}

/// The oracle for lazy synthesis: the eager in-order fill the executor used
/// to run before decoding.
Tensor synthesize_yolo_head_eager(const Shape& shape, Rng& rng) {
  Tensor t(shape, DType::kFloat32);
  for (float& v : t.span_f32()) {
    v = rng.next_double() < 0.01 ? rng.next_float(0.0f, 2.0f)
                                 : rng.next_float(-8.0f, -4.0f);
  }
  return t;
}

YoloDecodeParams small_yolo() {
  YoloDecodeParams p;
  p.num_classes = 6;
  p.anchors = {{10, 13}, {16, 30}, {33, 23}};
  p.input_size = 128;
  return p;
}

// Objectness on both sides of conf_thresh, and NaN / +-inf in objectness,
// class 0 and the other classes, at thresholds 0 through 1.
TEST(YoloDecode, EarlyExitMatchesFullDecode) {
  YoloDecodeParams p = small_yolo();
  const int64_t per_anchor = 5 + p.num_classes;
  const Shape shape{2, 3 * per_anchor, 5, 4};
  const int64_t plane = 5 * 4;
  const float specials[] = {kNan, kInf, -kInf};
  Rng rng(91);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor head = Tensor::random_normal(shape, rng, 3.0f);
    for (int64_t row = 0; row < 2 * 3 * plane; ++row) {
      if (rng.next_double() >= 0.3) continue;
      // (b * A + a) * per_anchor * plane + cell addresses channel 0.
      const int64_t base = (row / plane) * per_anchor * plane + row % plane;
      const int64_t ch = rng.next_below(2) == 0
                             ? 4 + static_cast<int64_t>(rng.next_below(2))
                             : static_cast<int64_t>(rng.next_below(per_anchor));
      head.data_f32()[base + ch * plane] =
          specials[rng.next_below(std::size(specials))];
    }
    for (float thresh : {0.0f, 0.01f, 0.3f, 0.7f, 1.0f}) {
      p.conf_thresh = thresh;
      EXPECT_TRUE(
          same_bits(yolo_decode_reference(head, p), yolo_decode_full(head, p)))
          << "trial " << trial << " conf_thresh " << thresh;
    }
  }
}

// A NaN class-0 logit makes the score NaN whatever the objectness, and the
// threshold comparison keeps the row; the early exit must not drop it.
TEST(YoloDecode, NanClassZeroKeepsLowObjectnessRow) {
  YoloDecodeParams p = small_yolo();
  p.anchors = {{16, 16}};
  Tensor head = Tensor::zeros(Shape{1, 5 + p.num_classes, 1, 1});
  head.data_f32()[4] = -10.0f;  // sigmoid ~ 4.5e-5, far below 0.01
  head.data_f32()[5] = kNan;    // class 0
  const Tensor out = yolo_decode_reference(head, p);
  EXPECT_TRUE(same_bits(out, yolo_decode_full(head, p)));
  EXPECT_EQ(out.data_f32()[0], 0.0f);
  EXPECT_TRUE(std::isnan(out.data_f32()[1]));
}

TEST(YoloDecode, LazySyntheticHeadMatchesEagerFill) {
  YoloDecodeParams p;
  p.num_classes = 80;
  p.anchors = {{10, 13}, {16, 30}, {33, 23}};
  p.input_size = 416;
  const Shape shape{1, 3 * 85, 13, 13};
  for (uint64_t seed : {1ull, 0x5eedull}) {
    Rng rng(seed);
    const Tensor eager = synthesize_yolo_head_eager(shape, rng);
    const graph::SyntheticYoloHead lazy{Rng(seed)};
    for (int64_t i = 0; i < shape.numel(); ++i) {
      ASSERT_EQ(lazy(i), eager.data_f32()[i]) << "element " << i;
    }
    const Tensor want = yolo_decode_full(eager, p);
    EXPECT_TRUE(same_bits(yolo_decode_at(shape, lazy, p), want));
    EXPECT_GT(valid_rows(want), 0);
  }
}

// Rows past the objectness exit are rejected in logit space when
// obj * sigmoid(max logit), widened by 1e-5, misses conf_thresh. Against
// the loop without early exits: NaN and +-inf logits, thresholds of 0,
// negative, subnormal and FLT_MIN, and thresholds within one ulp of a row's
// score, where only the margin keeps the bound above the float score.
TEST(YoloDecode, LogitSpaceRejectionMatchesFullDecode) {
  auto sigmoid = [](float x) { return 1.0f / (1.0f + std::exp(-x)); };
  YoloDecodeParams p = small_yolo();
  const int64_t per_anchor = 5 + p.num_classes;
  const int64_t plane = 5 * 4;
  const Shape shape{2, 3 * per_anchor, 5, 4};
  const int64_t rows = 2 * 3 * plane;
  const float specials[] = {kNan, kInf, -kInf};
  Rng rng(1717);
  for (int trial = 0; trial < 40; ++trial) {
    Tensor head = Tensor::random_normal(shape, rng, 3.0f);
    float* h = head.data_f32();
    // (b * A + a) * per_anchor * plane + cell addresses a row's channel 0.
    auto at = [&](int64_t row, int64_t ch) -> float& {
      return h[(row / plane) * per_anchor * plane + row % plane + ch * plane];
    };
    for (int64_t row = 0; row < rows; ++row) {
      at(row, 4) = rng.next_float(-1.0f, 4.0f);  // most rows pass objectness
      if (rng.next_double() < 0.15) {
        at(row, 4 + static_cast<int64_t>(rng.next_below(p.num_classes + 1))) =
            specials[rng.next_below(std::size(specials))];
      }
      if (rng.next_double() < 0.1) {  // tiny objectness: subnormal scores
        at(row, 4) = rng.next_float(-104.0f, -86.0f);
      }
    }
    // One finite row's exact score sets the near-threshold cases.
    const int64_t pick = static_cast<int64_t>(rng.next_below(rows));
    at(pick, 4) = rng.next_float(0.0f, 3.0f);
    float best = 0.0f;
    for (int64_t c = 0; c < p.num_classes; ++c) {
      at(pick, 5 + c) = rng.next_float(-6.0f, 2.0f);
      best = std::max(best, sigmoid(at(pick, 5 + c)));
    }
    const float score = sigmoid(at(pick, 4)) * best;
    const float fmin = std::numeric_limits<float>::min();
    for (float thresh :
         {score, std::nextafter(score, 0.0f), std::nextafter(score, 2.0f),
          score * (1.0f + 2e-6f), 0.0f, -0.5f, 0.01f, 0.3f, 1.0f, 1e-45f,
          fmin / 2.0f, fmin}) {
      p.conf_thresh = thresh;
      EXPECT_TRUE(
          same_bits(yolo_decode_reference(head, p), yolo_decode_full(head, p)))
          << "trial " << trial << " conf_thresh " << thresh;
    }
  }
}

// At a subnormal threshold the float score rounds with an absolute error
// that the 1e-5 margin does not cover: here obj * best is about 1.12e-45
// and rounds up to the threshold, so the logit-space exit must not run.
TEST(YoloDecode, SubnormalThresholdKeepsRoundedUpScore) {
  YoloDecodeParams p = small_yolo();
  p.anchors = {{16, 16}};
  Tensor head = Tensor::full(Shape{1, 5 + p.num_classes, 1, 1}, -15.5f);
  head.data_f32()[4] = -88.0f;  // objectness about 6.05e-39
  p.conf_thresh = std::numeric_limits<float>::denorm_min();
  const Tensor out = yolo_decode_reference(head, p);
  EXPECT_TRUE(same_bits(out, yolo_decode_full(head, p)));
  EXPECT_EQ(out.data_f32()[1], p.conf_thresh);
}

// Two engine workers serving detection tenants decode at the same time, each
// splitting its decode over the global pool: SSD_MobileNet1.0's 512 stream
// heads on one thread and YOLOv3's largest 512 head (64 x 64) on another,
// three times each. Every result equals its eager-fill oracle.
TEST(DetectionDecodes, ConcurrentCallersOnTheGlobalPoolMatchEagerFill) {
  const int64_t c1 = 21;
  const std::vector<Scale>& scales = kSsdMobileNet512;
  const Tensor anchors = [&] {
    Rng rng(5);
    return random_anchors(total_anchors(scales), rng);
  }();
  const MultiboxDetectionParams sp;
  Rng eager(0x55d);
  const Tensor ssd_want = assemble_and_decode(
      eager_ssd_heads(scales, /*bsz=*/1, c1, eager), c1, anchors, sp);
  Rng lazy(0x55d);
  const SsdStreams streams(scales, /*bsz=*/1, c1, lazy);

  YoloDecodeParams yp;
  yp.num_classes = 80;
  yp.anchors = {{10, 13}, {16, 30}, {33, 23}};
  yp.input_size = 512;
  const Shape yolo_shape{1, 3 * 85, 64, 64};
  Rng yolo_rng(0x7010);
  const Tensor yolo_want =
      yolo_decode_full(synthesize_yolo_head_eager(yolo_shape, yolo_rng), yp);
  const graph::SyntheticYoloHead yolo_head{Rng(0x7010)};
  EXPECT_GT(valid_rows(ssd_want), 0);
  EXPECT_GT(valid_rows(yolo_want), 0);

  std::atomic<int> ssd_matches{0};
  std::atomic<int> yolo_matches{0};
  std::thread ssd([&] {
    for (int r = 0; r < 3; ++r) {
      if (same_bits(streams.decode(scales, 1, c1, anchors, sp), ssd_want)) {
        ssd_matches++;
      }
    }
  });
  std::thread yolo([&] {
    for (int r = 0; r < 3; ++r) {
      if (same_bits(yolo_decode_at(yolo_shape, yolo_head, yp), yolo_want)) {
        yolo_matches++;
      }
    }
  });
  ssd.join();
  yolo.join();
  EXPECT_EQ(ssd_matches.load(), 3);
  EXPECT_EQ(yolo_matches.load(), 3);
}

}  // namespace
}  // namespace igc::ops
