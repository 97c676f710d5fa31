#include "dnn/model_zoo.h"

#include <stdexcept>

namespace magma::dnn {

namespace {

constexpr std::string_view
taskText(TaskType t)
{
    switch (t) {
    case TaskType::Vision:
        return "Vision";
    case TaskType::Language:
        return "Lang";
    case TaskType::Recommendation:
        return "Recom";
    case TaskType::Mix:
        return "Mix";
    }
    return "?";
}

}  // namespace

std::string
taskTypeName(TaskType t)
{
    return std::string(taskText(t));
}

TaskType
taskTypeFromName(std::string_view name)
{
    for (TaskType t : {TaskType::Vision, TaskType::Language,
                       TaskType::Recommendation, TaskType::Mix})
        if (taskText(t) == name)
            return t;
    throw std::invalid_argument("unknown task '" + std::string(name) +
                                "' (Vision|Lang|Recom|Mix)");
}

const std::vector<Model>&
allModels()
{
    static const std::vector<Model> all = [] {
        std::vector<Model> out = visionModels();
        for (const auto& m : languageModels())
            out.push_back(m);
        for (const auto& m : recomModels())
            out.push_back(m);
        return out;
    }();
    return all;
}

const std::vector<Model>&
modelsForTask(TaskType t)
{
    switch (t) {
    case TaskType::Vision:
        return visionModels();
    case TaskType::Language:
        return languageModels();
    case TaskType::Recommendation:
        return recomModels();
    case TaskType::Mix:
        break;
    }
    return allModels();
}

const Model&
findModel(const std::string& name)
{
    for (const auto& m : allModels())
        if (m.name == name)
            return m;
    throw std::out_of_range("unknown model: " + name);
}

}  // namespace magma::dnn
