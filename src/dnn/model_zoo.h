#ifndef MAGMA_DNN_MODEL_ZOO_H_
#define MAGMA_DNN_MODEL_ZOO_H_

#include <string>
#include <vector>

#include "dnn/model.h"

namespace magma::dnn {

/**
 * The model collection of Section VI-A1, hand-lowered to accelerator jobs.
 *
 * Vision:          MobileNetV2, ResNet-50, ShuffleNetV2, SqueezeNet, VGG16,
 *                  GoogLeNet, MnasNet.
 * Language:        GPT-2(small), BERT-base, MobileBERT, Transformer-XL,
 *                  XLM, T5-small. Attention and MLP blocks are lowered to
 *                  FC layers with the published hidden/FF/sequence sizes.
 * Recommendation:  DLRM, Wide&Deep, NCF, DIN, DIEN. MLP towers are lowered
 *                  to FC layers; embedding lookups stay on the host CPU
 *                  (Section II-A) and are not emitted.
 */
const std::vector<Model>& visionModels();
const std::vector<Model>& languageModels();
const std::vector<Model>& recomModels();

/** All models of all three categories. */
const std::vector<Model>& allModels();

/**
 * Models participating in a task. Mix returns the union of all three
 * categories (Section VI-A2's "complex task ... involved simultaneously").
 */
const std::vector<Model>& modelsForTask(TaskType t);

/** Lookup by name; throws std::out_of_range for unknown names. */
const Model& findModel(const std::string& name);

}  // namespace magma::dnn

#endif  // MAGMA_DNN_MODEL_ZOO_H_
