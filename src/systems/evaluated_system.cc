#include "systems/evaluated_system.h"

#include "systems/mvcc_system.h"
#include "systems/synergy_wrapper.h"
#include "systems/voltdb_system.h"

namespace synergy::systems {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kVoltDb: return "VoltDB";
    case SystemKind::kSynergy: return "Synergy";
    case SystemKind::kMvccA: return "MVCC-A";
    case SystemKind::kMvccUA: return "MVCC-UA";
    case SystemKind::kBaseline: return "Baseline";
  }
  return "?";
}

std::unique_ptr<EvaluatedSystem> MakeSystem(SystemKind kind) {
  switch (kind) {
    case SystemKind::kVoltDb:
      return std::make_unique<VoltDbSystem>();
    case SystemKind::kSynergy:
      return std::make_unique<SynergyWrapper>();
    case SystemKind::kMvccA:
      return std::make_unique<MvccSystem>("MVCC-A",
                                          MvccSystem::ViewMode::kAware);
    case SystemKind::kMvccUA:
      return std::make_unique<MvccSystem>("MVCC-UA",
                                          MvccSystem::ViewMode::kUnaware);
    case SystemKind::kBaseline:
      return std::make_unique<MvccSystem>("Baseline",
                                          MvccSystem::ViewMode::kNone);
  }
  return nullptr;
}

std::vector<SystemKind> AllSystemKinds() {
  return {SystemKind::kVoltDb, SystemKind::kSynergy, SystemKind::kMvccA,
          SystemKind::kMvccUA, SystemKind::kBaseline};
}

std::vector<SystemKind> HBaseBackedKinds() {
  return {SystemKind::kSynergy, SystemKind::kMvccA, SystemKind::kMvccUA,
          SystemKind::kBaseline};
}

}  // namespace synergy::systems
