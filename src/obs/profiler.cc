#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>

namespace magma::obs {

Profiler::ThreadState&
Profiler::threadState()
{
    // One state per (profiler, thread); the shared_ptr keeps a tree
    // mergeable after its thread exits (the Tracer ring pattern).
    thread_local std::shared_ptr<ThreadState> state;
    thread_local Profiler* owner = nullptr;
    if (!state || owner != this) {
        auto st = std::make_shared<ThreadState>();
        st->stack.push_back(&st->root);
        {
            std::lock_guard<std::mutex> lk(mu_);
            states_.push_back(st);
        }
        state = std::move(st);
        owner = this;
    }
    return *state;
}

void
Profiler::enter(ThreadState& st, const char* name)
{
    std::lock_guard<std::mutex> lk(st.mu);
    Node* cur = st.stack.back();
    std::unique_ptr<Node>& slot = cur->children[name];
    if (!slot)
        slot = std::make_unique<Node>();
    st.stack.push_back(slot.get());
}

void
Profiler::exit(ThreadState& st, double elapsedSeconds)
{
    std::lock_guard<std::mutex> lk(st.mu);
    Node* cur = st.stack.back();
    cur->count += 1;
    cur->totalSeconds += elapsedSeconds;
    st.stack.pop_back();
    st.stack.back()->childSeconds += elapsedSeconds;
}

std::vector<ProfileRow>
Profiler::rows() const
{
    // Merged mirror of Node, accumulated across threads by path.
    struct Merged {
        int64_t count = 0;
        double total = 0.0;
        double child = 0.0;
        std::map<std::string, Merged> children;
    };
    Merged root;

    std::vector<std::shared_ptr<ThreadState>> states;
    {
        std::lock_guard<std::mutex> lk(mu_);
        states = states_;
    }
    auto merge = [](auto&& self, Merged& dst, const Node& src) -> void {
        dst.count += src.count;
        dst.total += src.totalSeconds;
        dst.child += src.childSeconds;
        for (const auto& [name, sub] : src.children)
            self(self, dst.children[name], *sub);
    };
    for (const auto& st : states) {
        std::lock_guard<std::mutex> lk(st->mu);
        merge(merge, root, st->root);
    }

    std::vector<ProfileRow> out;
    auto flatten = [&out](auto&& self, const Merged& n,
                          const std::string& prefix) -> void {
        for (const auto& [name, sub] : n.children) {
            std::string path =
                prefix.empty() ? name : prefix + "/" + name;
            ProfileRow row;
            row.path = path;
            row.count = sub.count;
            row.totalSeconds = sub.total;
            row.selfSeconds = std::max(0.0, sub.total - sub.child);
            out.push_back(std::move(row));
            self(self, sub, path);
        }
    };
    flatten(flatten, root, std::string());
    return out;
}

std::string
Profiler::reportText() const
{
    std::string out;
    char line[160];
    for (const ProfileRow& row : rows()) {
        size_t depth = static_cast<size_t>(
            std::count(row.path.begin(), row.path.end(), '/'));
        size_t slash = row.path.rfind('/');
        std::string name = slash == std::string::npos
                               ? row.path
                               : row.path.substr(slash + 1);
        out.append(2 * depth, ' ');
        std::snprintf(line, sizeof line,
                      "%s  count=%lld  total=%.6fs  self=%.6fs\n",
                      name.c_str(), static_cast<long long>(row.count),
                      row.totalSeconds, row.selfSeconds);
        out += line;
    }
    return out;
}

void
Profiler::reset()
{
    std::vector<std::shared_ptr<ThreadState>> states;
    {
        std::lock_guard<std::mutex> lk(mu_);
        states = states_;
    }
    for (const auto& st : states) {
        std::lock_guard<std::mutex> lk(st->mu);
        // A thread with open frames holds raw pointers into its tree;
        // clearing under it would dangle them, so only quiescent
        // threads (stack == root) are reset. Tests reset between
        // phases when no scopes are live, so this covers them all.
        if (st->stack.size() != 1)
            continue;
        st->root.children.clear();
        st->root.count = 0;
        st->root.totalSeconds = 0.0;
        st->root.childSeconds = 0.0;
    }
}

Profiler&
Profiler::global()
{
    static Profiler* p = new Profiler();  // never destroyed: worker
                                          // threads may profile during
                                          // static teardown
    return *p;
}

}  // namespace magma::obs
