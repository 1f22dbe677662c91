#include "sim/cost_model.h"

namespace synergy::sim {

double RpcCost(const CostModel& m, size_t payload_bytes) {
  return m.rpc_base_us +
         m.rpc_per_kb_us * (static_cast<double>(payload_bytes) / 1024.0);
}

}  // namespace synergy::sim
