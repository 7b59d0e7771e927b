#include "ops/vision/yolo.h"

namespace igc::ops {

Tensor yolo_decode_reference(const Tensor& head, const YoloDecodeParams& p) {
  const float* in = head.data_f32();
  return yolo_decode_at(
      head.shape(), [in](int64_t i) { return in[i]; }, p);
}

void charge_yolo_decode_gpu(sim::GpuSimulator& gpu, const Shape& head,
                            const YoloDecodeParams& p) {
  IGC_CHECK_EQ(head.ndim(), 4);
  const int64_t cells = head[0] * head[2] * head[3] *
                        static_cast<int64_t>(p.anchors.size());
  gpu.launch_elementwise("yolo_decode", cells,
                         /*flops_per_elem=*/6 * (5 + p.num_classes) + 30,
                         /*bytes_per_elem=*/4 * (5 + p.num_classes));
}

Tensor yolo_decode_gpu(sim::GpuSimulator& gpu, const Tensor& head,
                       const YoloDecodeParams& p) {
  Tensor out = yolo_decode_reference(head, p);
  charge_yolo_decode_gpu(gpu, head.shape(), p);
  return out;
}

}  // namespace igc::ops
