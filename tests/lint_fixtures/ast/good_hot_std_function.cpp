// Analyzer fixture: callback idioms that stay off the heap.  Passing
// a lambda to a small-buffer callback CLASS (the EventCallback
// pattern) is fine, as are auto-typed lambda locals and moves of an
// existing std::function.
// expect-clean

#define ACCORD_HOT

#include <functional>
#include <utility>

namespace fixture
{

// Small-buffer-optimized callback class: NOT a std::function alias.
struct EventCallback
{
    template <typename F> EventCallback(F f) { (void)f; }
};

void schedule(long when, EventCallback cb);

using Callback = std::function<void(int)>;

void stash(Callback &&cb);

struct Worker
{
    ACCORD_HOT void fire(Callback &ready)
    {
        schedule(8, [] {});
        const auto helper = [] { return 1; };
        (void)helper();
        stash(std::move(ready));
    }
};

} // namespace fixture
