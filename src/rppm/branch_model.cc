#include "rppm/branch_model.hh"

namespace rppm {

BranchModelCache &
BranchModelCache::instance()
{
    static BranchModelCache cache;
    return cache;
}

const EntropyMissRateModel &
BranchModelCache::get(const BranchPredictorConfig &cfg)
{
    const auto key = std::make_pair(cfg.totalBytes, cfg.historyBits);
    // std::map iterators are insert-stable, so the reference returned
    // here survives later insertions; the lock only guards the lookup
    // and the (idempotent) first-use calibration.
    MutexLock lock(mutex_);
    auto it = models_.find(key);
    if (it == models_.end()) {
        it = models_.emplace(
            key, std::make_unique<EntropyMissRateModel>(cfg)).first;
    }
    return *it->second;
}

double
epochBranchMissRate(const EpochProfile &epoch, const CoreConfig &core)
{
    if (epoch.numBranches == 0)
        return 0.0;
    const EntropyMissRateModel &model =
        BranchModelCache::instance().get(core.branch);
    return model.missRate(epoch.branches.averageLinearEntropy());
}

} // namespace rppm
