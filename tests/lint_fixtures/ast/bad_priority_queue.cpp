// Fixture: an ad-hoc event heap instead of the shared EventQueue.
// expect: priority-queue

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace accord
{

// Equal-cycle entries pop in unspecified order — the same-cycle FIFO
// guarantee the shared EventQueue exists to provide.
using PendingEvent = std::pair<std::uint64_t, std::function<void()>>;

struct Later
{
    bool operator()(const PendingEvent &a, const PendingEvent &b) const
        { return a.first > b.first; }
};

std::priority_queue<PendingEvent, std::vector<PendingEvent>, Later>
    side_channel_events;

} // namespace accord
