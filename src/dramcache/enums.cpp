#include "dramcache/enums.hpp"

#include "common/log.hpp"
#include "common/paged_table.hpp"

namespace accord::dramcache
{

const char *
toToken(LookupMode mode)
{
    // The one switch over LookupMode outside the access-plan core; it
    // defines the vocabulary everything else (reports, describe(),
    // factory keys) reuses.
    switch (mode) {
      case LookupMode::Serial: return "serial";
      case LookupMode::Parallel: return "parallel";
      case LookupMode::Predicted: return "predicted";
      case LookupMode::Ideal: return "ideal";
    }
    fatal("unknown LookupMode %d", static_cast<int>(mode));
}

const char *
toToken(Organization org)
{
    switch (org) {
      case Organization::SetAssoc: return "set_assoc";
      case Organization::ColumnAssoc: return "ca";
    }
    fatal("unknown Organization %d", static_cast<int>(org));
}

const char *
toToken(L4Replacement repl)
{
    switch (repl) {
      case L4Replacement::Random: return "random";
      case L4Replacement::Lru: return "lru";
    }
    fatal("unknown L4Replacement %d", static_cast<int>(repl));
}

const char *
toToken(LayoutMode layout)
{
    switch (layout) {
      case LayoutMode::RowCoLocated: return "row_co_located";
      case LayoutMode::WayStriped: return "way_striped";
    }
    fatal("unknown LayoutMode %d", static_cast<int>(layout));
}

StorageMode
resolveStorageMode(StateBackend backend, std::uint64_t slots)
{
    switch (backend) {
      case StateBackend::Dense: return StorageMode::Dense;
      case StateBackend::Paged: return StorageMode::Paged;
      case StateBackend::Auto: return autoStorageMode(slots);
    }
    fatal("unknown StateBackend %d", static_cast<int>(backend));
}

} // namespace accord::dramcache
