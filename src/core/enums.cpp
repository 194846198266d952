#include "core/enums.hpp"

#include "common/log.hpp"

namespace accord::core
{

const char *
toToken(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Demand: return "demand";
      case RequestKind::Writeback: return "writeback";
    }
    fatal("unknown RequestKind %d", static_cast<int>(kind));
}

} // namespace accord::core
