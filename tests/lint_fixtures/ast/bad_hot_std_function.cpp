// Analyzer fixture: std::function construction on a hot path, in all
// three detected forms -- an explicitly typed local (through an
// alias), a lambda literal passed to a std::function parameter, and a
// lambda assigned to a std::function-typed parameter variable.
// expect: hot-std-function

#define ACCORD_HOT

#include <functional>

namespace fixture
{

using Callback = std::function<void(int)>;

void post(Callback cb);

struct Worker
{
    ACCORD_HOT void fire(Callback saved_cb)
    {
        Callback saved;
        post([](int v) { (void)v; });
        saved_cb = [](int v) { (void)(v + 1); };
        (void)saved;
    }
};

} // namespace fixture
