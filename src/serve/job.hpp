#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "md/box.hpp"
#include "md/integrity.hpp"
#include "runtime/stop.hpp"
#include "util/vec3.hpp"

namespace dpmd::md {
class Sim;
}

namespace dpmd::serve {

using JobId = std::uint64_t;

/// The three serving workloads (ROADMAP item 1): a single-point energy +
/// force evaluation, a steepest-descent relaxation, and a short (N)VT/NVE
/// trajectory.
enum class JobKind { Score, Relax, Trajectory };

const char* job_kind_name(JobKind k);

/// Job lifecycle (ISSUE 10):
///
///   submit ──> Queued ──claim──> Running ──> Done
///      │          │                 │        Failed     (permanent error)
///      │          │                 │        Cancelled  (stop honoured)
///      │          │                 │        TimedOut   (budget exceeded)
///      │          │                 └──transient error──> Queued (retry,
///      │          │                                        backoff delay)
///      │          ├──cancel()──────> Cancelled
///      │          └──deadline──────> Expired   (never started)
///      └──admission control───────> Rejected   (queue full / evicted)
///
/// Running jobs are cancelled *cooperatively*: the worker's physics loops
/// poll an rt::StopToken between MD steps / DP block sweeps / relax
/// iterations, so cancel() and the budget watchdog stop a running job
/// within one checkpoint interval, not at the next job boundary.
enum class JobStatus {
  Queued,
  Running,
  Done,
  Failed,     ///< permanent error (or transient retries exhausted)
  Cancelled,  ///< cancel(), shutdown(Now), or destructor abandonment
  Rejected,   ///< admission control: queue at cap (or evicted by priority)
  Expired,    ///< deadline passed while still queued — never started
  TimedOut,   ///< execution exceeded the job's wall-clock budget
};

const char* job_status_name(JobStatus s);

/// True for states a job can never leave (everything but Queued/Running).
bool job_status_terminal(JobStatus s);

/// One independent unit of work.  The system description is self-contained
/// (box + positions + types); the model is referenced by registry name so
/// the spec never carries weights.
struct JobSpec {
  JobKind kind = JobKind::Score;
  std::string model;      ///< serve::ModelRegistry name
  dp::EvalOptions opts;   ///< per-job numerics (precision, table, block)

  md::Box box;
  std::vector<Vec3> x;
  std::vector<int> type;
  std::vector<Vec3> v;          ///< optional (Trajectory); empty = at rest
  std::vector<double> masses;   ///< per type (Relax/Trajectory)

  // Trajectory parameters.
  int steps = 10;
  double dt_fs = 0.5;
  double temperature = 0.0;     ///< > 0 attaches a Langevin thermostat
  double langevin_gamma = 0.01; ///< 1/fs
  std::uint64_t seed = 1234;    ///< thermostat RNG stream

  // Relax parameters (steepest descent with a trust-radius step cap).
  int max_iters = 100;
  double force_tol = 5e-2;      ///< eV/A, on the max force component
  double max_move = 0.05;       ///< A per iteration per component

  // Robustness parameters (ISSUE 10) ---------------------------------------
  /// Scheduling class: higher runs first; FIFO within a class.  Also the
  /// eviction order under ShedPolicy::EvictLowestPriority.
  int priority = 0;
  /// Queue deadline relative to submission, ms: a job still Queued when it
  /// elapses is Expired without running.  <= 0 = no deadline.
  double deadline_ms = 0.0;
  /// Execution wall-clock budget, ms, from claim: past it the watchdog trips
  /// the job's stop token (DeadlineExceeded) and finalizes it TimedOut.
  /// <= 0 = unbounded.
  double budget_ms = 0.0;
  /// Total execution attempts allowed.  Transient failures (numerical-health
  /// trip, comm timeout) requeue with exponential backoff until attempts are
  /// spent; permanent failures never retry.  Minimum 1.
  int max_attempts = 1;
  /// Per-job numerical health guard (ISSUE 6), enabled by default: served
  /// trajectories ride the same NaN/blow-up scan + rewind ladder as
  /// campaign runs.  Override the thresholds for jobs whose force scale is
  /// far from the MD default, or set .enabled = false to opt out.
  md::HealthConfig health;

  // Test / observability hooks ---------------------------------------------
  /// Called once at the start of every execution attempt, on the worker,
  /// with the job's stop token.  Fault injection in tests (throw, block,
  /// fail-once-then-succeed); an exception is classified like any job error.
  std::function<void(const rt::StopToken&)> fault_hook;
  /// Trajectory only: called after every completed MD step (Sim::run
  /// callback).  Mutating the Sim from here is allowed — it models external
  /// corruption for the health-guard tests — but forfeits the bit-identity
  /// contract for this job.
  std::function<void(int step, md::Sim& sim)> on_step;
};

struct JobResult {
  JobStatus status = JobStatus::Queued;
  std::string error;         ///< set for Failed/Rejected/Expired/TimedOut/...

  double energy = 0.0;       ///< total PE (final state for Relax/Trajectory)
  double virial = 0.0;
  std::vector<double> per_atom_energy;  ///< Score only
  std::vector<Vec3> forces;  ///< final forces (locals)
  std::vector<Vec3> x;       ///< final positions (Relax/Trajectory)
  std::vector<Vec3> v;       ///< final velocities (Trajectory)
  int iters = 0;             ///< Relax iterations / Trajectory steps done
  double fmax = 0.0;         ///< Relax: final max |f| component

  // Service-side accounting.
  double queue_us = 0.0;     ///< submit -> execution start
  double run_us = 0.0;       ///< execution start -> done
  int gang_size = 1;         ///< Score jobs co-evaluated in this job's sweep
  int attempts = 0;          ///< execution attempts consumed (retries + 1)
  std::uint64_t seq = 0;     ///< global completion order (1-based; 0 = n/a)
};

}  // namespace dpmd::serve
