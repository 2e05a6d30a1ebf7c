#include "md/integrity.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dpmd::md {

void Integrity::ensure_snapshot(int step, const SaveFn& save) {
  if (cfg_.enabled && cfg_.snapshot_every > 0 && snapshot_.empty()) {
    take_snapshot(step, save);
  }
}

void Integrity::step_completed(int step, const SaveFn& save) {
  if (cfg_.enabled && cfg_.snapshot_every > 0 &&
      step % cfg_.snapshot_every == 0) {
    take_snapshot(step, save);
  }
}

void Integrity::take_snapshot(int step, const SaveFn& save) {
  ckpt::Writer w;
  save(w);
  snapshot_ = w.framed();
  snapshot_step_ = step;
  // Fresh snapshot = forward progress: the retry budget starts over.
  trips_since_progress_ = 0;
}

bool Integrity::rewound_after_trip(const Atoms& atoms, double pe, int step,
                                   const RestoreFn& restore, double& dt_fs,
                                   Pair& pair) {
  if (!cfg_.enabled) return false;
  // NaN/Inf/threshold scan of the local forces and this rank's energy
  // share, written as negated comparisons so NaN (every comparison false)
  // registers unhealthy.
  const double limit2 = cfg_.max_force * cfg_.max_force;
  bool bad =
      !(std::abs(pe) <= cfg_.max_pe_per_atom * std::max(1, atoms.nlocal));
  for (int i = 0; i < atoms.nlocal && !bad; ++i) {
    bad = !(atoms.f[static_cast<std::size_t>(i)].norm2() <= limit2);
  }
  if (verdict_) bad = verdict_(bad);
  if (!bad) return false;

  const char* cause = "non-finite or blown-up forces/energy";
  ++trips_since_progress_;
  if (snapshot_.empty() || trips_since_progress_ > cfg_.max_retries) {
    incidents_.record(step, "health", cause, "abort");
    throw dpmd::Error(
        "numerical health trip" + where_ + " at step " + std::to_string(step) +
        (snapshot_.empty() ? " with no snapshot to rewind to"
                           : " after exhausting the retry budget") +
        "; incidents:\n" + incidents_.summary());
  }
  std::string action = "rewind to step " + std::to_string(snapshot_step_) +
                       " + forced rebuild";
  ckpt::Reader r(snapshot_, "in-memory rewind snapshot");
  restore(r);
  r.expect_end();
  // Escalation ladder: retry 1 is a pure rewind + rebuild, so a transient
  // fault recovers onto the undisturbed trajectory; later retries change
  // the numerics — applied *after* the restore, which just overwrote dt_fs
  // with the snapshot's value.  With a collective verdict the trip count
  // advances in lockstep on every rank, so the ladder is collective too.
  if (trips_since_progress_ >= 2) {
    dt_fs *= cfg_.dt_backoff;
    action += ", dt -> " + std::to_string(dt_fs) + " fs";
  }
  if (trips_since_progress_ >= 3 && pair.degrade_to_conservative()) {
    action += ", pair degraded to conservative numerics";
  }
  // The restore rolled the engine back to the snapshot's step.
  incidents_.record(snapshot_step_, "health", cause, action);
  return true;
}

}  // namespace dpmd::md
