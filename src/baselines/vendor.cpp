#include "baselines/vendor.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "graph/graph.h"
#include "sim/timing_model.h"

namespace igc::baselines {
namespace {

/// Operator classes the vendor kernels specialize differently.
enum class ConvClass { kRegular, kDepthwise, kPointwise, kNarrow };

ConvClass classify(const ops::Conv2dParams& p) {
  if (p.is_depthwise()) return ConvClass::kDepthwise;
  // Narrow kernels (SqueezeNet squeeze layers, stems, small heads) miss the
  // vendor GEMM sweet spot regardless of kernel size.
  if (p.out_channels < 64 || p.in_channels < 64) return ConvClass::kNarrow;
  if (p.kernel_h == 1 && p.kernel_w == 1) return ConvClass::kPointwise;
  return ConvClass::kRegular;
}

/// One vendor stack's efficiency profile. Fractions of device peak reached
/// by the library's fixed kernels per conv class, elementwise efficiency,
/// and fixed framework overhead per operator launch.
struct Profile {
  double conv_regular;
  double conv_depthwise;
  double conv_pointwise;
  double conv_narrow;
  double elementwise;
  double per_op_ms;
  /// Vision ops: true = run on CPU (ACL manual fallback), false = naive GPU.
  bool vision_on_cpu;
};

/// Calibrated so the relative results of Tables 1-3 reproduce in shape:
/// OpenVINO's clDNN is strong on regular and pointwise kernels and — while
/// its depthwise kernels are also far from peak — still well ahead of our
/// not-yet-specialized Intel depthwise template (Table 1 MobileNet 0.62x);
/// ACL is decent but generic, so our tuner wins modestly on classification
/// (Table 2); cuDNN is tuned for server-class shapes, leaving edge-size
/// depthwise/narrow kernels far from peak (Table 3 MobileNet 1.49x,
/// SqueezeNet 1.62x), and MXNet adds per-op runtime overhead.
Profile profile_for(VendorLib lib) {
  switch (lib) {
    case VendorLib::kOpenVino:
      return {/*conv_regular=*/0.215, /*conv_depthwise=*/0.013,
              /*conv_pointwise=*/0.28, /*conv_narrow=*/0.29,
              /*elementwise=*/0.55, /*per_op_ms=*/0.035,
              /*vision_on_cpu=*/true};
    case VendorLib::kAcl:
      return {/*conv_regular=*/0.36, /*conv_depthwise=*/0.085,
              /*conv_pointwise=*/0.20, /*conv_narrow=*/0.22,
              /*elementwise=*/0.45, /*per_op_ms=*/0.09,
              /*vision_on_cpu=*/true};
    case VendorLib::kCudnnMxnet:
      return {/*conv_regular=*/0.45, /*conv_depthwise=*/0.04,
              /*conv_pointwise=*/0.28, /*conv_narrow=*/0.17,
              /*elementwise=*/0.45, /*per_op_ms=*/0.06,
              /*vision_on_cpu=*/false};
  }
  IGC_CHECK(false);
  return {};
}

double conv_latency(const Profile& prof, const ops::Conv2dParams& p,
                    const sim::DeviceSpec& gpu) {
  double eff = 0.0;
  switch (classify(p)) {
    case ConvClass::kRegular: eff = prof.conv_regular; break;
    case ConvClass::kDepthwise: eff = prof.conv_depthwise; break;
    case ConvClass::kPointwise: eff = prof.conv_pointwise; break;
    case ConvClass::kNarrow: eff = prof.conv_narrow; break;
  }
  const double compute_s =
      static_cast<double>(p.flops()) / (gpu.peak_gflops * 1e9 * eff);
  const double mem_s = static_cast<double>(p.min_bytes()) /
                       (gpu.dram_bandwidth_gbps * 1e9);
  return (std::max(compute_s, mem_s) + gpu.kernel_launch_us * 1e-6) * 1e3;
}

double elementwise_latency(const Profile& prof, int64_t numel,
                           int64_t flops_per_elem, const sim::DeviceSpec& gpu) {
  const double compute_s = static_cast<double>(numel * flops_per_elem) /
                           (gpu.peak_gflops * 1e9 * prof.elementwise);
  const double mem_s =
      static_cast<double>(8 * numel) / (gpu.dram_bandwidth_gbps * 1e9);
  return (std::max(compute_s, mem_s) + gpu.kernel_launch_us * 1e-6) * 1e3;
}

/// Analytic vision-op cost for baselines: N anchors, ~2% valid candidates.
double vision_latency(const Profile& prof, int64_t num_anchors, int64_t batch,
                      const sim::Platform& plat) {
  const double n = static_cast<double>(std::max<int64_t>(num_anchors, 1)) *
                   static_cast<double>(batch);
  const double candidates = std::max(32.0, 0.02 * n);
  const double kept = std::min(100.0, candidates);
  const double sort_flops = 4.0 * n * std::log2(n + 2.0);
  const double eval_flops = 16.0 * candidates * kept * 0.5;
  const double decode_flops = 40.0 * n;
  if (prof.vision_on_cpu) {
    // Manual CPU implementation + a copy each way.
    return sim::cpu_latency_ms(plat.cpu,
                               static_cast<int64_t>(sort_flops + eval_flops +
                                                    decode_flops),
                               static_cast<int64_t>(n) * 24, 0.3) +
           2.0 * sim::copy_latency_ms(plat.gpu, static_cast<int64_t>(n) * 24);
  }
  // Naive GPU mapping (the MXNet runtime's generic kernels): a single lane
  // runs the sort and suppression serially with uncoalesced accesses; only
  // the decode is parallel.
  const double serial_ms = (sort_flops + eval_flops) /
                           (plat.gpu.serial_lane_mflops * 1e6) * 1e3;
  const double decode_ms =
      decode_flops / (plat.gpu.peak_gflops * 1e9 * 0.2) * 1e3;
  return serial_ms + decode_ms + plat.gpu.kernel_launch_us * 1e-3 * 4;
}

bool is_detection_model(const models::Model& model) {
  for (const auto& n : model.graph.nodes()) {
    switch (n.kind) {
      case graph::OpKind::kSsdDetection:
      case graph::OpKind::kYoloDecode:
      case graph::OpKind::kBoxNms:
        return true;
      default:
        break;
    }
  }
  return false;
}

}  // namespace

std::string_view vendor_name(VendorLib lib) {
  switch (lib) {
    case VendorLib::kOpenVino: return "OpenVINO";
    case VendorLib::kAcl: return "ACL";
    case VendorLib::kCudnnMxnet: return "cuDNN";
  }
  return "unknown";
}

VendorLib vendor_for(const sim::Platform& platform) {
  switch (platform.gpu.vendor) {
    case sim::Vendor::kIntel: return VendorLib::kOpenVino;
    case sim::Vendor::kArmMali: return VendorLib::kAcl;
    case sim::Vendor::kNvidia: return VendorLib::kCudnnMxnet;
    default: break;
  }
  IGC_CHECK(false) << "no vendor stack for " << platform.name;
  return VendorLib::kOpenVino;
}

BaselineResult run_baseline(VendorLib lib, const models::Model& model,
                            const sim::Platform& platform) {
  BaselineResult result;
  if (lib == VendorLib::kOpenVino && is_detection_model(model)) {
    // Table 1: "- indicates that the model is not yet supported by OpenVINO".
    result.supported = false;
    result.unsupported_reason =
        "OpenVINO does not support this object-detection model";
    return result;
  }

  const Profile prof = profile_for(lib);
  const sim::DeviceSpec& gpu = platform.gpu;
  double ms = 0.0;
  // One tagged trace event per costed op. The vendor model is analytic, so
  // the charge is opaque to the counter layer (fully serialized,
  // latency-bound), but lane and category are real: they drive the same
  // per-lane rollups the executor's trace feeds.
  const auto charge = [&](double op_ms, sim::Lane lane, sim::OpCategory cat,
                          const std::string& name) {
    ms += op_ms;
    sim::KernelCounters c;
    c.launches = 1;
    c.ms = op_ms;
    c.overhead_ms = op_ms;
    c.occupancy = 1.0;
    c.bound = sim::BoundKind::kLatency;
    result.events.push_back({name, op_ms, lane, cat, 0, c});
  };
  for (const auto& n : model.graph.nodes()) {
    switch (n.kind) {
      case graph::OpKind::kInput:
      case graph::OpKind::kConstant:  // resident data: no kernel charged
      case graph::OpKind::kFlatten:
        break;
      case graph::OpKind::kConv2d:
        charge(conv_latency(prof, n.conv, gpu) + prof.per_op_ms,
               sim::Lane::kGpu, sim::OpCategory::kConv, n.name);
        break;
      case graph::OpKind::kConv2dTranspose: {
        // Vendor stacks run deconvolution as a regular conv after input
        // dilation; charge the same profile at the deconv's FLOPs.
        const double eff = n.deconv.out_channels < 64 ? prof.conv_narrow
                                                      : prof.conv_regular;
        charge(static_cast<double>(n.deconv.flops()) /
                       (gpu.peak_gflops * 1e9 * eff) * 1e3 +
                   prof.per_op_ms,
               sim::Lane::kGpu, sim::OpCategory::kConv, n.name);
        break;
      }
      case graph::OpKind::kDense:
        charge(elementwise_latency(prof, n.dense.flops() / 2, 2, gpu) +
                   prof.per_op_ms,
               sim::Lane::kGpu, sim::OpCategory::kOther, n.name);
        break;
      case graph::OpKind::kScaleShift:
      case graph::OpKind::kActivation:
        // Vendor stacks fuse these into the conv; only framework overhead.
        charge(prof.per_op_ms * 0.2, sim::Lane::kGpu, sim::OpCategory::kOther,
               n.name);
        break;
      case graph::OpKind::kAdd:
      case graph::OpKind::kConcat:
      case graph::OpKind::kPool2d:
      case graph::OpKind::kGlobalAvgPool:
      case graph::OpKind::kSoftmax:
      case graph::OpKind::kUpsample2x:
        charge(elementwise_latency(prof, n.out_shape.numel(), 2, gpu) +
                   prof.per_op_ms,
               sim::Lane::kGpu, sim::OpCategory::kOther, n.name);
        break;
      case graph::OpKind::kSsdDetection:
      case graph::OpKind::kBoxNms:
        // ACL/OpenVINO run the vision block on the host CPU (with the copies
        // folded into the same analytic charge); MXNet keeps it on the GPU.
        charge(vision_latency(prof, n.out_shape[1], n.out_shape[0], platform),
               prof.vision_on_cpu ? sim::Lane::kCpu : sim::Lane::kGpu,
               sim::OpCategory::kVision, n.name);
        break;
      case graph::OpKind::kYoloDecode:
        charge(elementwise_latency(
                   prof, n.out_shape[1] * (5 + n.yolo.num_classes), 6, gpu) +
                   prof.per_op_ms,
               sim::Lane::kGpu, sim::OpCategory::kVision, n.name);
        break;
      case graph::OpKind::kDetectionConcat:
        charge(elementwise_latency(prof, n.out_shape.numel(), 1, gpu),
               sim::Lane::kGpu, sim::OpCategory::kVision, n.name);
        break;
      case graph::OpKind::kRoiAlign:
        // Vendor stacks run ROIAlign suboptimally on GPU or on the CPU
        // (Sec. 1); approximate with the elementwise profile at 40 flops
        // per output sample.
        charge(elementwise_latency(prof, n.out_shape.numel() * 5, 8, gpu) +
                   prof.per_op_ms,
               sim::Lane::kGpu, sim::OpCategory::kVision, n.name);
        break;
      case graph::OpKind::kDeviceCopy:
        charge(sim::copy_latency_ms(gpu, n.out_shape.numel() * 4),
               sim::Lane::kCopy, sim::OpCategory::kCopy, n.name);
        break;
    }
  }
  result.latency_ms = ms;
  return result;
}

}  // namespace igc::baselines
