/**
 * @file
 * QBMI — Quota-Based Memory request Issuing (Section 3.2, Figure 7).
 *
 * Memory *instruction* quotas are derived from each kernel's measured
 * requests-per-memory-instruction so that the issued *request* volume
 * balances across kernels:
 *
 *     quota_i = LCM(r_0, ..., r_{n-1}) / r_i
 *
 * A kernel's priority to issue a memory instruction is its current
 * quota (higher quota first); each issued memory instruction costs one
 * quota unit; when any kernel's quota reaches zero a fresh quota set —
 * computed from the most recent Req/Minst estimates (re-sampled every
 * 1024 requests) — is *added* to the current values.
 */

#ifndef CKESIM_CORE_QBMI_HPP
#define CKESIM_CORE_QBMI_HPP

#include <cstdint>
#include <vector>

namespace ckesim {

/** Least common multiple (safe for the small r_i values seen here). */
std::uint64_t lcm64(std::uint64_t a, std::uint64_t b);

/**
 * Compute per-kernel quotas from rounded Req/Minst values.
 * @param req_per_minst one entry per kernel; values are clamped to
 *        >= 1 before use
 */
std::vector<int>
qbmiQuotas(const std::vector<double> &req_per_minst);

/**
 * Online Req/Minst estimator: re-sampled every 1024 requests, matching
 * the paper's observation that Req/Minst is stable within a kernel.
 */
class ReqPerMinstEstimator
{
  public:
    static constexpr int kSampleRequests = 1024;

    void
    onMemInstr()
    {
        ++minsts_;
    }

    void
    onRequest()
    {
        ++requests_;
        if (requests_ >= kSampleRequests) {
            if (minsts_ > 0) {
                estimate_ = static_cast<double>(requests_) /
                            static_cast<double>(minsts_);
            }
            requests_ = 0;
            minsts_ = 0;
        }
    }

    /** Latest estimate (1.0 until the first window completes). */
    double value() const { return estimate_; }

    void
    reset()
    {
        requests_ = 0;
        minsts_ = 0;
        estimate_ = 1.0;
    }

  private:
    int requests_ = 0;
    int minsts_ = 0;
    double estimate_ = 1.0;
};

} // namespace ckesim

#endif // CKESIM_CORE_QBMI_HPP
