// Analyzer fixture: string work belongs on cold paths.  A non-hot
// reporting helper may build strings freely; the hot function sticks
// to const char* and integer ids.
// expect-clean

#define ACCORD_HOT

#include <string>

namespace fixture
{

void sink(const char *text);

struct Labeler
{
    unsigned last_id_ = 0;

    ACCORD_HOT void tag(unsigned id)
    {
        last_id_ = id;
        sink("txn");
    }

    std::string describeLast() const
    {
        return "txn-" + std::to_string(last_id_);
    }
};

} // namespace fixture
