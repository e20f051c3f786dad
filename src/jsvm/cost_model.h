/**
 * @file
 * The browser cost model: where the paper's numbers come from.
 *
 * Mechanisms (copying, queueing, waking) are implemented for real in this
 * substrate; engine costs that a 2016 browser adds on top are charged via
 * this model. Profiles are calibrated against the paper's measurements:
 *   - message passing is ~3 orders of magnitude slower than a syscall (§6);
 *   - Chrome serves the meme list request in ~9 ms vs Firefox ~6 ms (§5.2);
 *   - Node startup (bundle parse) dominates Figure 9's utility times.
 */
#pragma once

#include <cstddef>
#include <string>

namespace browsix {
namespace jsvm {

struct BrowserProfile
{
    std::string name;
    /// Fixed overhead charged per postMessage (sender side), microseconds.
    double postMessageUs = 0;
    /// Structured-clone copy cost per KiB transferred.
    double cloneUsPerKb = 0;
    /// Cost of constructing a Web Worker (thread + isolate + script
    /// evaluation; tens of ms for multi-MB bundles in 2016 browsers).
    double workerSpawnUs = 0;
    /// Script parse/JIT cost per KiB of loaded bundle.
    double parseUsPerKb = 0;
    /// JS-vs-native compute factor (informational; some code paths use
    /// genuine JS-semantics implementations instead).
    double jsComputeFactor = 1;
    /// Emterpreter-vs-asm.js factor for interpreted C code.
    double emterpreterFactor = 1;
    /// asm.js-vs-native factor for compiled C code that runs natively
    /// here (TeX's typesetter): the surcharge is (factor - 1) times the
    /// measured native time. 2016-era asm.js integer loops ran ~3x native.
    double asmjsFactor = 1;

    static const BrowserProfile &chrome2016();
    static const BrowserProfile &firefox2016();
    /// All-zero costs and neutral (1x) factors; used by unit tests,
    /// functional examples and host-time benchmarks.
    static const BrowserProfile &fast();
};

/**
 * Charges simulated time. Short charges spin (accurate at the tens of
 * microseconds the message-path needs); long charges sleep.
 */
class CostModel
{
  public:
    explicit CostModel(BrowserProfile p) : profile_(std::move(p)) {}

    const BrowserProfile &profile() const { return profile_; }

    /** postMessage of a payload of the given structured-clone size. */
    void chargeMessage(size_t bytes) const;
    /** Worker construction. */
    void chargeSpawn() const;
    /** Parsing/JITting a script bundle of the given size. */
    void chargeParse(size_t bytes) const;
    /** Arbitrary engine-time charge in microseconds. */
    void charge(double us) const;

  private:
    BrowserProfile profile_;
};

} // namespace jsvm
} // namespace browsix
