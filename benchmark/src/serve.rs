//! Open-loop load on an in-process `ddl-serve` service.
//!
//! A seeded schedule fixes every request's wire line and due time. The
//! submitter thread sends each line at its due time whether or not
//! earlier requests have finished (an open loop: independent clients),
//! and a collector thread waits for the responses in order. Latency runs
//! from the due time, so a stall also charges the requests queued behind
//! it, and the generator reports how late it sent.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dynamic_data_layout::core::{PlanKey, Strategy, TransformKind};
use dynamic_data_layout::kernels::iterative::fft_radix2_inplace;
use dynamic_data_layout::num::{Complex64, DdlError, Direction};
use dynamic_data_layout::serve::{Service, ServiceConfig, Ticket};

use crate::rng::Rng;

/// Share of one worker's measured capacity that the `serve_mix`
/// schedule offers: its arrival rate is this over [`mix_service_s`].
/// Open-loop requests each pay thread wake-ups that the measurement's
/// back-to-back bursts do not, so the service saturates far below the
/// measured capacity; at a tenth, the default queue sheds nothing.
pub const MIX_UTILIZATION: f64 = 0.1;

/// Requests per burst, and bursts per distinct line, in
/// [`mix_service_s`]. A burst fits the default 64-request queue.
const CALIBRATION_BURST: usize = 16;
const CALIBRATION_ROUNDS: usize = 11;

/// Latency limit for goodput: a response later than this counts as
/// missed.
pub const SERVE_LIMIT: Duration = Duration::from_millis(25);

/// The size whose `exec dft <n> ddl` requests are set against radix-2
/// for `vs_radix2`.
pub const RADIX2_PROBE_N: usize = 4096;

/// Shortest gap before an arrival in which the submitter times one
/// radix-2 FFT of [`RADIX2_PROBE_N`] points (about a tenth of it).
const RADIX2_GAP: Duration = Duration::from_micros(600);

/// How long before a due time the submitter stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// What a wire line asks for, as the checker needs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `exec <kind> ...` of `n` points; the response's DC bin must be `n`.
    Exec { dft: bool, n: usize },
    /// `plan ...`.
    Plan,
}

/// One line of the mix and its weight.
struct MixLine {
    weight: u64,
    line: &'static str,
    op: Op,
}

const fn exec(weight: u64, line: &'static str, dft: bool, n: usize) -> MixLine {
    MixLine {
        weight,
        line,
        op: Op::Exec { dft, n },
    }
}

const fn plan(weight: u64, line: &'static str) -> MixLine {
    MixLine {
        weight,
        line,
        op: Op::Plan,
    }
}

/// The `serve_mix` traffic, in percent: 88% `exec` at 2^10-2^12 (DFT,
/// inverse DFT and WHT; DDL and SDL plans; 9% as explicit tree
/// expressions, compiled per request), a 3% tail at 2^16 and 9% cached
/// `plan` lookups.
///
/// The weights keep each reported quantile inside one class of requests
/// rather than on the edge between two, where run-to-run noise would
/// move it from one class to the other: the median request and the p90
/// `exec` are 2^12 DFTs (60%, above the 37% of faster requests), and
/// the p99 latency falls mid-way through the 2% of 2^16 DFTs.
const MIX: &[MixLine] = &[
    exec(26, "exec dft 4096 ddl", true, 4096),
    exec(18, "exec idft 4096 ddl", true, 4096),
    exec(6, "exec dft 4096 sdl", true, 4096),
    exec(3, "exec idft 4096 sdl", true, 4096),
    exec(4, "exec dft ct(64, 64)", true, 4096),
    exec(3, "exec dft ctddl(64, 64)", true, 4096),
    exec(5, "exec dft 2048 ddl", true, 2048),
    exec(3, "exec idft 2048 ddl", true, 2048),
    exec(2, "exec dft 2048 sdl", true, 2048),
    exec(1, "exec dft ct(16, ct(8, 16))", true, 2048),
    exec(4, "exec dft 1024 ddl", true, 1024),
    exec(2, "exec idft 1024 ddl", true, 1024),
    exec(1, "exec dft 1024 sdl", true, 1024),
    exec(1, "exec dft ct(32, 32)", true, 1024),
    exec(3, "exec wht 4096 ddl", false, 4096),
    exec(2, "exec wht 2048 ddl", false, 2048),
    exec(2, "exec wht 1024 sdl", false, 1024),
    exec(2, "exec dft 65536 ddl", true, 65536),
    exec(1, "exec wht 65536 ddl", false, 65536),
    plan(4, "plan dft 4096 ddl"),
    plan(2, "plan wht 2048 ddl"),
    plan(2, "plan idft 1024 sdl"),
    plan(1, "plan dft 65536 ddl"),
];

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Offset of the due time from the start of the run.
    pub due: Duration,
    /// The wire line.
    pub line: String,
    /// What the response must show.
    pub op: Op,
}

/// The seeded `serve_mix` schedule: Poisson arrivals at `rate` per
/// second for `seconds`, lines drawn from the weighted mix.
pub fn mix_schedule(seed: u64, seconds: f64, rate: f64) -> Vec<Arrival> {
    let total: u64 = MIX.iter().map(|m| m.weight).sum();
    let mut rng = Rng::new(seed, 0x5e);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / rate);
        if t >= seconds {
            return out;
        }
        let mut pick = rng.below(total);
        let m = MIX
            .iter()
            .find(|m| {
                if pick < m.weight {
                    true
                } else {
                    pick -= m.weight;
                    false
                }
            })
            .expect("pick is below the total weight");
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            line: m.line.to_string(),
            op: m.op,
        });
    }
}

/// A schedule of one planned `exec` line at `rate` per second, for the
/// serve probe of the closed-loop workloads.
pub fn single_schedule(seed: u64, seconds: f64, rate: f64, kind: &str, n: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x51);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / rate);
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            line: format!("exec {kind} {n} ddl"),
            op: Op::Exec {
                dft: kind != "wht",
                n,
            },
        });
    }
}

/// Every distinct line of the mix: the set-up request per key.
pub fn mix_lines() -> Vec<(&'static str, Op)> {
    MIX.iter().map(|m| (m.line, m.op)).collect()
}

/// Mean service time of the mix on `svc`'s one worker, in seconds.
/// Each distinct line is sent in bursts of [`CALIBRATION_BURST`]
/// requests submitted back to back, so the worker runs them without
/// idling between them; a burst's time from first submit to last
/// response, per request, is the line's service time. Each line's median
/// over [`CALIBRATION_ROUNDS`] bursts (rounds run every line in turn, so
/// drift reaches all lines alike) is weighted as the mix weights it.
/// Fails on the first error or response that does not check.
pub fn mix_service_s(svc: &Service) -> Result<f64, String> {
    let mut times = vec![Vec::with_capacity(CALIBRATION_ROUNDS); MIX.len()];
    for _ in 0..CALIBRATION_ROUNDS {
        for (m, t) in MIX.iter().zip(&mut times) {
            let t0 = Instant::now();
            let tickets = (0..CALIBRATION_BURST)
                .map(|_| svc.submit(m.line))
                .collect::<Result<Vec<Ticket>, DdlError>>()
                .map_err(|e| format!("{}: {e}", m.line))?;
            let responses: Vec<String> = tickets.into_iter().map(Ticket::wait).collect();
            t.push(t0.elapsed().as_secs_f64() / CALIBRATION_BURST as f64);
            for response in responses {
                check_response(m.op, &response)?;
            }
        }
    }
    let total: u64 = MIX.iter().map(|m| m.weight).sum();
    let weighted: f64 = MIX
        .iter()
        .zip(&mut times)
        .map(|(m, t)| m.weight as f64 * crate::stats::quantile(t, 0.5).unwrap_or(f64::NAN))
        .sum();
    Ok(weighted / total as f64)
}

/// The engine keys the mix's planned lines use.
pub fn mix_plan_keys() -> Vec<PlanKey> {
    let mut keys = Vec::new();
    for m in MIX {
        let toks: Vec<&str> = m.line.split_whitespace().collect();
        let (Some(n), Some(strategy)) = (
            toks.get(2).and_then(|t| t.parse::<usize>().ok()),
            toks.get(3),
        ) else {
            continue;
        };
        let strategy = if *strategy == "sdl" {
            Strategy::Sdl
        } else {
            Strategy::Ddl
        };
        let key = match toks[1] {
            "wht" => PlanKey::wht(n, strategy),
            "idft" => PlanKey {
                kind: TransformKind::Dft(Direction::Inverse),
                ..PlanKey::dft(n, strategy)
            },
            _ => PlanKey::dft(n, strategy),
        };
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

/// The service every serve run uses: one worker, and otherwise the
/// defaults (a 64-request queue, the default engine with
/// `PlannerConfig::ddl_analytical()`).
pub fn start_service() -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The request's line.
    pub line: String,
    /// The response was `ok` and showed what the request asked for.
    pub ok: bool,
    /// Why it failed, when it did.
    pub error: Option<String>,
    /// Shed at admission.
    pub shed: bool,
    /// From due time to response.
    pub latency: Duration,
    /// From due time to the submit call.
    pub lag: Duration,
    /// Time inside `Service::submit`.
    pub submit: Duration,
    /// Server-reported execution time (`wall_ns`), for `exec` lines.
    pub exec_ns: Option<u64>,
    /// Points of an `exec` line, and whether it was a DFT.
    pub exec: Option<(bool, usize)>,
    /// Worker time charged to this request: from when the worker could
    /// start it (its submission or the previous response, whichever is
    /// later) to its response.
    pub busy: Duration,
}

/// The result of one open-loop run.
#[derive(Debug)]
pub struct ServeRun {
    /// Per request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Radix-2 times at [`RADIX2_PROBE_N`] taken in the submitter's idle
    /// gaps.
    pub radix2: Vec<Duration>,
    /// From the start to the last response.
    pub elapsed: Duration,
}

/// Parses `key=value` from a response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

/// Checks one response against its request: `Ok(wall_ns)` for a good
/// `exec` response (DC bin equal to `n`, as an all-ones input demands),
/// `Ok(None)` for a good `plan` response.
pub fn check_response(op: Op, response: &str) -> Result<Option<u64>, String> {
    match op {
        Op::Plan => {
            if response.starts_with("ok plan ") {
                Ok(None)
            } else {
                Err(response.to_string())
            }
        }
        Op::Exec { n, .. } => {
            if !response.starts_with("ok exec ") {
                return Err(response.to_string());
            }
            let got_n: Option<usize> = field(response, "n").and_then(|v| v.parse().ok());
            let dc: Option<f64> = field(response, "dc").and_then(|v| v.parse().ok());
            let wall: Option<u64> = field(response, "wall_ns").and_then(|v| v.parse().ok());
            match (got_n, dc, wall) {
                (Some(m), Some(dc), Some(wall))
                    if m == n && (dc - n as f64).abs() <= 1e-9 * n as f64 =>
                {
                    Ok(Some(wall))
                }
                _ => Err(format!("bad exec response for n={n}: {response}")),
            }
        }
    }
}

/// Runs `schedule` against `svc` as an open loop. The submitter times a
/// radix-2 FFT of [`RADIX2_PROBE_N`] points in a gap before every
/// `radix2_every`-th arrival when the gap is long enough (0 disables).
pub fn run_open_loop(svc: &Service, schedule: &[Arrival], radix2_every: usize) -> ServeRun {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Result<Ticket, DdlError>, Instant)>();
    let mut radix2 = Vec::new();
    let mut outcomes = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(schedule.len());
            let mut prev_done = start;
            for (i, due, sent, submitted, sent_end) in rx {
                let a: &Arrival = &schedule[i];
                let (response, shed) = match submitted {
                    Ok(ticket) => (ticket.wait(), false),
                    Err(e) => (format!("err {e}"), matches!(e, DdlError::Overloaded { .. })),
                };
                let done = Instant::now();
                let checked = check_response(a.op, &response);
                let busy = if shed {
                    Duration::ZERO
                } else {
                    done.saturating_duration_since(sent.max(prev_done))
                };
                if !shed {
                    prev_done = done;
                }
                out.push(Outcome {
                    line: a.line.clone(),
                    ok: checked.is_ok(),
                    error: checked.as_ref().err().cloned(),
                    shed,
                    latency: done.saturating_duration_since(due),
                    lag: sent.saturating_duration_since(due),
                    submit: sent_end.saturating_duration_since(sent),
                    exec_ns: checked.ok().flatten(),
                    exec: match a.op {
                        Op::Exec { dft, n } => Some((dft, n)),
                        Op::Plan => None,
                    },
                    busy,
                });
            }
            out
        });
        let mut buf = vec![Complex64::ZERO; RADIX2_PROBE_N];
        for (i, a) in schedule.iter().enumerate() {
            let due = start + a.due;
            if radix2_every > 0 && i % radix2_every == 0 {
                let gap = due.saturating_duration_since(Instant::now());
                if gap > RADIX2_GAP {
                    for (k, v) in buf.iter_mut().enumerate() {
                        *v = Complex64::new((k % 7) as f64, 1.0);
                    }
                    let t0 = Instant::now();
                    fft_radix2_inplace(&mut buf, Direction::Forward);
                    radix2.push(t0.elapsed());
                }
            }
            // Sleep until shortly before the due time, then yield-spin:
            // a sleep alone overshoots by a scheduler wake-up, which would
            // show up as generator lag.
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::thread::yield_now();
            }
            let sent = Instant::now();
            let submitted = svc.submit(&a.line);
            let sent_end = Instant::now();
            if tx.send((i, due, sent, submitted, sent_end)).is_err() {
                break;
            }
        }
        drop(tx);
        outcomes = collector.join().expect("collector thread panicked");
    });
    ServeRun {
        outcomes,
        radix2,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = mix_schedule(42, 2.0, 250.0);
        assert_eq!(a, mix_schedule(42, 2.0, 250.0));
        assert_ne!(a, mix_schedule(43, 2.0, 250.0));
        // Poisson count around rate * seconds, due times ascending.
        assert!((420..580).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(
            single_schedule(7, 1.0, 50.0, "dft", 64),
            single_schedule(7, 1.0, 50.0, "dft", 64)
        );
    }

    #[test]
    fn every_mix_line_parses_and_every_size_matches() {
        for (line, op) in mix_lines() {
            let req = dynamic_data_layout::serve::parse_request(line).unwrap();
            if let Op::Exec { n, .. } = op {
                let got = match req {
                    dynamic_data_layout::serve::Request::ExecPlanned { n, .. } => n,
                    dynamic_data_layout::serve::Request::ExecExpr { expr, .. } => {
                        dynamic_data_layout::prelude::parse_tree(&expr)
                            .unwrap()
                            .size()
                    }
                    other => panic!("{other:?}"),
                };
                assert_eq!(got, n, "{line}");
            }
        }
        assert_eq!(mix_plan_keys().len(), 16);
    }

    #[test]
    fn response_checker_demands_the_dc_bin() {
        let op = Op::Exec { dft: true, n: 1024 };
        assert_eq!(
            check_response(op, "ok exec dft n=1024 dc=1024 backend=scalar wall_ns=17"),
            Ok(Some(17))
        );
        assert!(
            check_response(op, "ok exec dft n=1024 dc=1023 backend=scalar wall_ns=17").is_err()
        );
        assert!(check_response(op, "err overloaded: queue full").is_err());
        assert_eq!(
            check_response(Op::Plan, "ok plan dft n=64 tree=64"),
            Ok(None)
        );
    }

    #[test]
    fn a_short_open_loop_answers_every_request() {
        let svc = start_service();
        let schedule = mix_schedule(3, 0.05, 400.0);
        let run = run_open_loop(&svc, &schedule, 4);
        let service_s = mix_service_s(&svc).unwrap();
        svc.shutdown();
        assert!(service_s > 0.0 && service_s < 0.1, "{service_s}");
        assert_eq!(run.outcomes.len(), schedule.len());
        assert!(run.outcomes.iter().all(|o| o.ok), "{:?}", run.outcomes);
    }
}
