#ifndef MAGMA_DNN_MODEL_H_
#define MAGMA_DNN_MODEL_H_

#include <string>
#include <string_view>
#include <vector>

#include "dnn/layer.h"

namespace magma::dnn {

/**
 * Task categories the paper's benchmark covers (Section VI-A2).
 * Mix draws from all three.
 */
enum class TaskType { Vision, Language, Recommendation, Mix };

/** Human-readable task name ("Vision", "Lang", "Recom", "Mix"). */
std::string taskTypeName(TaskType t);

/** Parse a taskTypeName(); throws std::invalid_argument. */
TaskType taskTypeFromName(std::string_view name);

/**
 * One DNN model: an ordered list of accelerator-visible layers.
 *
 * Language/recommendation attention and MLP blocks are pre-lowered into FC
 * layers (the paper models them that way); embedding lookups are excluded
 * because they run on the CPU host.
 */
struct Model {
    std::string name;
    TaskType task = TaskType::Vision;
    std::vector<LayerShape> layers;

    /** Total MACs for one sample across all layers. */
    int64_t macsPerSample() const
    {
        int64_t total = 0;
        for (const auto& l : layers)
            total += l.macsPerSample();
        return total;
    }
};

}  // namespace magma::dnn

#endif  // MAGMA_DNN_MODEL_H_
