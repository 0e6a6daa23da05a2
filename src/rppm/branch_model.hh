/**
 * @file
 * Branch component of Eq. 1: mbpred x (cres + cfr).
 *
 * The misprediction count mbpred comes from the workload's linear branch
 * entropy (microarchitecture-independent) mapped through the calibrated
 * per-predictor EntropyMissRateModel. The resolution time cres is the
 * average dispatch-to-execute delay of branches, obtained from the ILP
 * replay; the refill time cfr is the front-end depth.
 */

#ifndef RPPM_RPPM_BRANCH_MODEL_HH
#define RPPM_RPPM_BRANCH_MODEL_HH

#include <map>
#include <memory>

#include "arch/config.hh"
#include "common/thread_annotations.hh"
#include "branch/entropy.hh"
#include "profile/epoch_profile.hh"

namespace rppm {

/**
 * Caches EntropyMissRateModel calibrations per predictor configuration so
 * design-space sweeps pay the calibration cost once per predictor.
 * Thread-safe: grid workers share the process-wide instance, so every
 * lookup takes its lock; the thread model looks up once per thread, not
 * per epoch. Returned references stay valid for the cache's lifetime
 * (entries are never evicted).
 */
class BranchModelCache
{
  public:
    /** The calibrated map for @p cfg (built on first use). */
    const EntropyMissRateModel &get(const BranchPredictorConfig &cfg)
        RPPM_EXCLUDES(mutex_);

    /** Process-wide instance. */
    static BranchModelCache &instance();

  private:
    Mutex mutex_;
    std::map<std::pair<uint32_t, uint32_t>,
             std::unique_ptr<EntropyMissRateModel>> models_
        RPPM_GUARDED_BY(mutex_);
};

/** Entropy-predicted misprediction probability of @p epoch on @p core. */
double epochBranchMissRate(const EpochProfile &epoch,
                           const CoreConfig &core);

} // namespace rppm

#endif // RPPM_RPPM_BRANCH_MODEL_HH
