// The model zoo (Sec. 4.1): structurally faithful builds of the six
// evaluated GluonCV models with seeded-random weights. Latency does not
// depend on weight values, so synthetic weights preserve every benchmark's
// behaviour while keeping the repository self-contained.
//
//   image classification: ResNet50_v1, MobileNet1.0, SqueezeNet1.0 (224x224)
//   object detection:     SSD_MobileNet1.0, SSD_ResNet50, Yolov3
//                         (512x512; 300x300 on Acer aiSage, Table 2 note)
#pragma once

#include <string>

#include "core/rng.h"
#include "graph/graph.h"

namespace igc::models {

struct Model {
  std::string name;
  graph::Graph graph;
};
// Every builder stamps a graph::ShapeSpec on its graph: classifiers declare
// dynamic batch [1,8] and dynamic square resolution [64,1024] (they are
// fully convolutional up to global pooling); detection and segmentation
// models declare dynamic batch only — their anchor grids / skip alignment
// are baked for the build-time resolution. CompiledModel::run(batch, hw)
// validates requested bindings against this spec.

/// ResNet-50 v1: 7x7 stem, [3,4,6,3] bottleneck stages, GAP, FC-1000.
Model build_resnet50(Rng& rng, int64_t image_size = 224, int64_t batch = 1,
                     int64_t num_classes = 1000);

/// MobileNet 1.0: 3x3 stem + 13 depthwise-separable blocks, GAP, FC-1000.
Model build_mobilenet(Rng& rng, int64_t image_size = 224, int64_t batch = 1,
                      int64_t num_classes = 1000);

/// SqueezeNet 1.0: 7x7 stem + fire modules + conv10 classifier.
Model build_squeezenet(Rng& rng, int64_t image_size = 224, int64_t batch = 1,
                       int64_t num_classes = 1000);

/// Inception v1 (GoogLeNet): stem + nine 4-branch inception modules
/// (3a..5b), GAP, FC-1000. The branchiest classifier here — every module
/// forks four independent limbs — which makes it the reference workload for
/// the wavefront time model's branch-overlap win.
Model build_inception_v1(Rng& rng, int64_t image_size = 224, int64_t batch = 1,
                         int64_t num_classes = 1000);

enum class SsdBackbone { kMobileNet, kResNet50 };

/// SSD with six detection scales over the chosen backbone (VOC: 20 classes).
Model build_ssd(Rng& rng, SsdBackbone backbone, int64_t image_size = 512,
                int64_t batch = 1, int64_t num_classes = 20);

/// YOLOv3 on Darknet-53 with three detection heads (COCO: 80 classes).
Model build_yolov3(Rng& rng, int64_t image_size = 512, int64_t batch = 1,
                   int64_t num_classes = 80);

/// FCN-8s semantic segmentation on a ResNet-50 backbone (the paper's intro
/// names segmentation as a motivating edge task; this exercises transposed
/// convolution and multi-scale fusion). Output: per-pixel class logits.
Model build_fcn_resnet50(Rng& rng, int64_t image_size = 224, int64_t batch = 1,
                         int64_t num_classes = 21);

/// All six evaluation models at the paper's input sizes for a platform
/// (detection shrinks to 300x300 on the Mali device).
std::vector<Model> build_all(Rng& rng, bool small_detection_inputs);

}  // namespace igc::models
