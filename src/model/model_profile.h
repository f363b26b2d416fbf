// Profiles of the five DNNs the paper evaluates (Table 3), expressed
// as the quantities the performance and memory models need: parameter
// counts, partitionable layer-block counts, FLOPs per sample, boundary
// activation sizes, and the paper's batch-size settings.
//
// The real system profiles these quantities with a one-time profiling
// run (Appendix C.1); here they are derived analytically from the
// published architectures and calibrated per-model sustained FLOP
// rates (see DESIGN.md §2 for the calibration constants).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace parcae {

struct ModelProfile {
  std::string name;
  double parameters = 0.0;       // trainable parameter count
  int partition_units = 1;       // layer blocks a partitioner can split
  double tokens_per_sample = 1;  // sequence length for NLP, 1 for CV
  int mini_batch = 1;            // global mini-batch size (Table 3)
  int micro_batch = 1;           // pipeline micro-batch size (Table 3)
  double fwd_flops_per_sample = 0.0;
  // Sustained per-GPU throughput for this workload on a V100 (fp16),
  // capturing kernel efficiency (small CIFAR images utilize a V100 far
  // less than large transformer GEMMs).
  double effective_flops = 10e12;
  // Bytes of the activation tensor crossing a stage boundary, per
  // sample (fp16).
  double boundary_activation_bytes = 0.0;
  // Bytes of all activations inside one partition unit, per sample —
  // the recompute workspace when activation checkpointing is on.
  double unit_activation_bytes = 0.0;
  bool activation_recompute = true;
  std::string dataset;
  std::string sample_unit;  // "image" or "token"

  // fwd+bwd (+recompute fwd) FLOPs per sample.
  double train_flops_per_sample() const {
    // bwd ~= 2x fwd; recompute replays fwd once more.
    return fwd_flops_per_sample * (activation_recompute ? 4.0 : 3.0);
  }

  // Items the paper reports cost per: tokens for NLP, images for CV.
  double units_per_sample() const { return tokens_per_sample; }

  double weight_bytes() const { return parameters * 2.0; }  // fp16
};

// The five models of Table 3.
ModelProfile resnet152_profile();
ModelProfile vgg19_profile();
ModelProfile bert_large_profile();
ModelProfile gpt2_profile();   // GPT-2 1.5B
ModelProfile gpt3_profile();   // GPT-3 6.7B

// All five in the paper's order.
std::vector<ModelProfile> model_zoo();

// A fully connected MLP with `layer_sizes` widths trained on
// mini-batches of `batch_size` — the real workload of the in-process
// and multi-process runtimes. One partition unit per layer,
// micro-batches of an eighth of the batch, ~3 flops per parameter per
// sample, and a sustained rate calibrated to seconds per iteration:
// only relative throughputs matter for configuration choice.
ModelProfile mlp_profile(std::string name,
                         const std::vector<std::size_t>& layer_sizes,
                         std::size_t batch_size);

// Lookup by name ("ResNet-152", "VGG-19", "BERT-Large", "GPT-2",
// "GPT-3"); throws std::out_of_range on unknown names.
ModelProfile model_by_name(const std::string& name);

// Models a k-GPU instance as one scheduling unit for the Figure-10
// study (§10.2): pipeline stages live on distinct nodes, and a node's
// k GPUs run k data-parallel replicas of its stage. Per "node
// micro-batch" the stage processes k samples with k GPUs' compute,
// and the k boundary-activation streams share the node's single NIC.
// Note the per-GPU memory constraint is unchanged physically (each
// GPU replicates the whole stage); the activation term becomes
// slightly conservative because micro_batch is scaled.
ModelProfile as_multi_gpu_node(ModelProfile base, int gpus_per_node);

// -----------------------------------------------------------------------
// Layer partitioner: splits `units` partition units into P contiguous
// stages as evenly as possible (the models are homogeneous stacks, the
// same assumption the paper makes for its Varuna-like search space).
// Returns per-stage unit counts, size P, or empty if P > units.
std::vector<int> partition_layers(int units, int stages);

}  // namespace parcae
