#include "model/model_profile.h"

#include <algorithm>
#include <stdexcept>

namespace parcae {

ModelProfile resnet152_profile() {
  ModelProfile m;
  m.name = "ResNet-152";
  m.parameters = 60.2e6;
  m.partition_units = 50;  // residual blocks
  m.tokens_per_sample = 1;
  m.mini_batch = 2048;
  m.micro_batch = 32;
  // ~11.6 GFLOPs at 224x224 scaled to CIFAR 32x32 inputs.
  m.fwd_flops_per_sample = 0.24e9;
  // Small conv kernels on 32x32 images leave a V100 mostly idle.
  m.effective_flops = 1.2e12;
  m.boundary_activation_bytes = 16.0 * 16.0 * 256.0 * 2.0;  // ~131 KB
  m.unit_activation_bytes = 3.0 * m.boundary_activation_bytes;
  m.activation_recompute = false;  // activations are tiny
  m.dataset = "CIFAR-100";
  m.sample_unit = "image";
  return m;
}

ModelProfile vgg19_profile() {
  ModelProfile m;
  m.name = "VGG-19";
  m.parameters = 143.7e6;
  m.partition_units = 19;
  m.tokens_per_sample = 1;
  m.mini_batch = 2048;
  m.micro_batch = 32;
  m.fwd_flops_per_sample = 0.4e9;
  m.effective_flops = 2.5e12;  // larger dense layers utilize better
  m.boundary_activation_bytes = 16.0 * 16.0 * 256.0 * 2.0;
  m.unit_activation_bytes = 3.0 * m.boundary_activation_bytes;
  m.activation_recompute = false;
  m.dataset = "CIFAR-100";
  m.sample_unit = "image";
  return m;
}

ModelProfile bert_large_profile() {
  ModelProfile m;
  m.name = "BERT-Large";
  m.parameters = 340e6;
  m.partition_units = 24;  // transformer layers
  m.tokens_per_sample = 128;
  m.mini_batch = 1024;
  m.micro_batch = 8;
  // ~2 FLOPs per parameter per token, forward.
  m.fwd_flops_per_sample = 2.0 * 340e6 * 128;
  m.effective_flops = 25e12;
  m.boundary_activation_bytes = 128.0 * 1024.0 * 2.0;  // seq x hidden fp16
  m.unit_activation_bytes = 17.0 * m.boundary_activation_bytes;
  m.activation_recompute = true;
  m.dataset = "WikiText-2";
  m.sample_unit = "token";
  return m;
}

ModelProfile gpt2_profile() {
  ModelProfile m;
  m.name = "GPT-2";
  m.parameters = 1.5e9;
  m.partition_units = 48;  // GPT-2 XL layers
  m.tokens_per_sample = 1024;
  m.mini_batch = 128;
  m.micro_batch = 1;
  m.fwd_flops_per_sample = 2.0 * 1.5e9 * 1024;
  m.effective_flops = 35e12;
  m.boundary_activation_bytes = 1024.0 * 1600.0 * 2.0;  // seq x hidden
  m.unit_activation_bytes = 17.0 * m.boundary_activation_bytes;
  m.activation_recompute = true;
  m.dataset = "WikiText-2";
  m.sample_unit = "token";
  return m;
}

ModelProfile gpt3_profile() {
  ModelProfile m;
  m.name = "GPT-3";
  m.parameters = 6.7e9;
  m.partition_units = 32;  // GPT-3 6.7B layers
  m.tokens_per_sample = 2048;
  m.mini_batch = 64;
  m.micro_batch = 1;
  m.fwd_flops_per_sample = 2.0 * 6.7e9 * 2048;
  m.effective_flops = 45e12;
  m.boundary_activation_bytes = 2048.0 * 4096.0 * 2.0;
  m.unit_activation_bytes = 17.0 * m.boundary_activation_bytes;
  m.activation_recompute = true;
  m.dataset = "WikiText-2";
  m.sample_unit = "token";
  return m;
}

std::vector<ModelProfile> model_zoo() {
  return {resnet152_profile(), vgg19_profile(), bert_large_profile(),
          gpt2_profile(), gpt3_profile()};
}

ModelProfile mlp_profile(std::string name,
                         const std::vector<std::size_t>& layer_sizes,
                         std::size_t batch_size) {
  ModelProfile profile;
  profile.name = std::move(name);
  double params = 0.0;
  const auto& sizes = layer_sizes;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    params += static_cast<double>(sizes[i] * sizes[i + 1] + sizes[i + 1]);
  profile.parameters = params;
  profile.partition_units = static_cast<int>(sizes.size()) - 1;
  profile.mini_batch = static_cast<int>(batch_size);
  profile.micro_batch = std::max(1, static_cast<int>(batch_size) / 8);
  // fwd 1x, bwd 2x.
  profile.fwd_flops_per_sample = params * 2.0;
  profile.effective_flops = params * 2.0;
  profile.boundary_activation_bytes =
      static_cast<double>(sizes[1]) * sizeof(float);
  profile.unit_activation_bytes = profile.boundary_activation_bytes * 3.0;
  profile.activation_recompute = false;
  profile.sample_unit = "sample";
  return profile;
}

ModelProfile model_by_name(const std::string& name) {
  for (auto& m : model_zoo())
    if (m.name == name) return m;
  throw std::out_of_range("unknown model: " + name);
}

ModelProfile as_multi_gpu_node(ModelProfile base, int gpus_per_node) {
  if (gpus_per_node <= 1) return base;
  base.name += "-node" + std::to_string(gpus_per_node);
  base.effective_flops *= gpus_per_node;
  base.micro_batch = std::min(base.micro_batch * gpus_per_node,
                              base.mini_batch);
  return base;
}

std::vector<int> partition_layers(int units, int stages) {
  if (stages <= 0 || stages > units) return {};
  std::vector<int> out(static_cast<std::size_t>(stages), units / stages);
  // Distribute the remainder to the earliest stages (front stages hold
  // more in-flight activations, but the difference is one unit).
  for (int i = 0; i < units % stages; ++i) ++out[static_cast<std::size_t>(i)];
  return out;
}

}  // namespace parcae
