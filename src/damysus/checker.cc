#include "src/damysus/checker.h"

namespace achilles {

DamysusChecker::DamysusChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, bool restored)
    : SealedVoteChecker(enclave, n, f, "damysus-checker",
                        {kDamPrep, kDamVote1, kDamVote2, kDamNewView, kDamAcc}, restored) {}

std::unique_ptr<DamysusChecker> DamysusChecker::Restore(EnclaveRuntime* enclave, uint32_t n,
                                                        uint32_t f,
                                                        bool break_restore_verify) {
  std::unique_ptr<DamysusChecker> checker(new DamysusChecker(enclave, n, f, /*restored=*/true));
  if (!checker->LoadSealed(break_restore_verify)) {
    return nullptr;
  }
  return checker;
}

}  // namespace achilles
