// Analyzer fixture: page materialization inside an ACCORD_HOT
// function.  materializeSlot()/ensurePage() are the paged storage
// layer's allocation seams (common/paged_table.hpp); calling either
// from a hot function puts page allocation on the timed read path.
// expect: hot-paged-materialize

#define ACCORD_HOT

namespace fixture
{

struct Column
{
    int storage_[64] = {};

    int &materializeSlot(unsigned long slot)
    {
        return storage_[slot];
    }

    int *ensurePage(unsigned long page)
    {
        return &storage_[page];
    }
};

struct TagStore
{
    Column stamps_;

    ACCORD_HOT void touch(unsigned long slot)
    {
        stamps_.materializeSlot(slot) = 1;
    }

    ACCORD_HOT int *prefetch(unsigned long page)
    {
        return stamps_.ensurePage(page);
    }
};

} // namespace fixture
