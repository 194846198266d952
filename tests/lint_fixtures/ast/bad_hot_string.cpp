// Analyzer fixture: std::string / std::to_string temporaries inside
// an ACCORD_HOT function (each one allocates on the simulated
// per-event path).
// expect: hot-string

#define ACCORD_HOT

#include <string>

namespace fixture
{

void sink(const std::string &text);

struct Labeler
{
    ACCORD_HOT void tag(unsigned id)
    {
        std::string label = "txn-";
        sink(label + std::to_string(id));
    }
};

} // namespace fixture
