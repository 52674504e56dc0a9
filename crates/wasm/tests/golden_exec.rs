//! Golden execution pins for the guests the simulator actually runs.
//!
//! Every simulated startup time is `instrs_retired × exec_ns_per_instr`
//! and every "side-tables"/"code-cache" mapping is sized from
//! [`ExecStats`], so the work-unit counting rule of each tier is part of
//! the figures. These constants were captured on the commit *before* the
//! in-place interpreter was rewritten (PR 14) and are the oracle for any
//! later change to either executor: same units retired, same host calls,
//! same accounted bytes, same stdout, same final linear memory — and fuel
//! and epoch traps that land on exactly the same unit.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use wasm_core::{
    decode_module, EpochClock, EpochConfig, ExecTier, Imports, Instance, InstanceConfig, Module,
    Trap, Value,
};
use workloads::{balloon_module, hung_service_module, microservice_module, MicroserviceConfig};

const TIERS: [ExecTier; 2] = [ExecTier::InPlace, ExecTier::Lowered];

/// The WASI surface the guests import: `fd_write` appends the first iovec
/// to `stdout`, `clock_time_get` reports a clock that advances 100 ns per
/// call (so `hung_service_module(1_000)` becomes ready on its tenth poll).
fn wasi(stdout: Rc<RefCell<Vec<u8>>>) -> Imports {
    let now = Cell::new(0u64);
    Imports::new()
        .func("wasi_snapshot_preview1", "fd_write", move |mem, args| {
            let m = mem.as_mut().expect("guest exports a memory");
            let iovs = args[1].as_i32().expect("iovs pointer") as u32;
            let (base, len) = (m.load_u32(iovs, 0)?, m.load_u32(iovs, 4)?);
            stdout.borrow_mut().extend_from_slice(m.read_bytes(base, len)?);
            m.store_u32(args[3].as_i32().expect("nwritten pointer") as u32, 0, len)?;
            Ok(vec![Value::I32(0)])
        })
        .func("wasi_snapshot_preview1", "clock_time_get", move |mem, args| {
            now.set(now.get() + 100);
            let m = mem.as_mut().expect("guest exports a memory");
            m.store_u64(args[2].as_i32().expect("time pointer") as u32, 0, now.get())?;
            Ok(vec![Value::I32(0)])
        })
}

/// A fresh instance of `module` with its own captured stdout.
fn instantiate(module: &Arc<Module>, config: InstanceConfig) -> (Instance, Rc<RefCell<Vec<u8>>>) {
    let stdout = Rc::new(RefCell::new(Vec::new()));
    let inst = Instance::instantiate(Arc::clone(module), wasi(Rc::clone(&stdout)), config)
        .expect("guest instantiates");
    (inst, stdout)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

fn guests() -> Vec<(&'static str, Arc<Module>)> {
    let micro = |cfg: &MicroserviceConfig| microservice_module(cfg);
    [
        ("default", micro(&MicroserviceConfig::default())),
        ("compute_heavy", micro(&MicroserviceConfig::compute_heavy())),
        ("memory_heavy", micro(&MicroserviceConfig::memory_heavy())),
        ("spinner", micro(&MicroserviceConfig::spinner(5_000))),
        ("one_iteration", micro(&MicroserviceConfig { loop_iterations: 1, ..Default::default() })),
        ("hung_service", hung_service_module(1_000)),
        ("balloon", balloon_module(16, 8)),
    ]
    .into_iter()
    .map(|(name, bytes)| (name, Arc::new(decode_module(bytes).expect("guest decodes"))))
    .collect()
}

/// One line per (guest, tier): everything the engines read off a finished
/// run, plus what the guest left behind.
fn pins() -> String {
    let mut table = String::new();
    for (name, module) in guests() {
        for tier in TIERS {
            let (mut inst, stdout) =
                instantiate(&module, InstanceConfig { tier, ..Default::default() });
            inst.run_start().expect("guest runs to completion");
            let s = inst.stats();
            let mem = inst.memory().expect("guest memory");
            let bytes = mem.read_bytes(0, mem.size_bytes() as u32).expect("whole memory");
            writeln!(
                table,
                "{name} {tier:?} retired={} host_calls={} side_table={} lowered={} stdout={:?} \
                 pages={} mem={:016x}",
                s.instrs_retired,
                s.host_calls,
                s.side_table_bytes,
                s.lowered_bytes,
                String::from_utf8_lossy(&stdout.borrow()),
                mem.size_pages(),
                fnv1a(bytes),
            )
            .expect("write to string");
        }
    }
    table
}

const GOLDEN: &str = r#"default InPlace retired=1196017 host_calls=1 side_table=24 lowered=0 stdout="microservice ready\n" pages=40 mem=29cdc19a5f6c766e
default Lowered retired=698009 host_calls=1 side_table=0 lowered=130832 stdout="microservice ready\n" pages=40 mem=29cdc19a5f6c766e
compute_heavy InPlace retired=11960017 host_calls=1 side_table=24 lowered=0 stdout="compute service ready\n" pages=160 mem=06890e7072282fb6
compute_heavy Lowered retired=6980009 host_calls=1 side_table=0 lowered=435472 stdout="compute service ready\n" pages=160 mem=06890e7072282fb6
memory_heavy InPlace retired=2392017 host_calls=1 side_table=24 lowered=0 stdout="cache service ready\n" pages=240 mem=f1cc565ff6f7e8f2
memory_heavy Lowered retired=1396009 host_calls=1 side_table=0 lowered=130832 stdout="cache service ready\n" pages=240 mem=f1cc565ff6f7e8f2
spinner InPlace retired=2990017 host_calls=1 side_table=24 lowered=0 stdout="spinner ready\n" pages=40 mem=d2cdaa3c4fb94106
spinner Lowered retired=1745009 host_calls=1 side_table=0 lowered=22032 stdout="spinner ready\n" pages=40 mem=d2cdaa3c4fb94106
one_iteration InPlace retired=615 host_calls=1 side_table=24 lowered=0 stdout="microservice ready\n" pages=40 mem=9caa8868634a2619
one_iteration Lowered retired=358 host_calls=1 side_table=0 lowered=130832 stdout="microservice ready\n" pages=40 mem=9caa8868634a2619
hung_service InPlace retired=124 host_calls=12 side_table=24 lowered=0 stdout="hung service: waiting\nhung service: ready\n" pages=40 mem=6f18757a16a4ecfe
hung_service Lowered retired=100 host_calls=12 side_table=0 lowered=320 stdout="hung service: waiting\nhung service: ready\n" pages=40 mem=6f18757a16a4ecfe
balloon InPlace retired=118 host_calls=1 side_table=24 lowered=0 stdout="balloon ready\n" pages=144 mem=af83d1d5dcb4e0e3
balloon Lowered retired=64 host_calls=1 side_table=0 lowered=224 stdout="balloon ready\n" pages=144 mem=af83d1d5dcb4e0e3
"#;

#[test]
fn guest_runs_match_the_golden_pins() {
    let actual = pins();
    assert!(actual == GOLDEN, "execution pins moved.\n--- golden\n{GOLDEN}--- actual\n{actual}");
}

/// With `n` the units an unlimited run retires: a budget of `n` is enough,
/// a budget of `n - 1` traps on the last unit with nothing left — on both
/// tiers, for a guest that computes and one that only boots.
#[test]
fn fuel_traps_land_on_the_exact_unit() {
    for (name, module) in guests().into_iter().filter(|(n, _)| ["default", "balloon"].contains(n)) {
        for tier in TIERS {
            let run = |fuel: Option<u64>| {
                let (mut inst, stdout) =
                    instantiate(&module, InstanceConfig { tier, fuel, ..Default::default() });
                let outcome = inst.run_start();
                let out = stdout.borrow().clone();
                (outcome, inst.stats().instrs_retired, inst.fuel_remaining(), out)
            };
            let (ok, n, _, full_stdout) = run(None);
            assert_eq!(ok, Ok(()), "{name} {tier:?}");

            let (exact, retired, left, out) = run(Some(n));
            assert_eq!((exact, retired, left), (Ok(()), n, Some(0)), "{name} {tier:?} fuel n");
            assert_eq!(out, full_stdout);

            // The unit that finds the tank empty is still counted: that is
            // what the engines bill an out-of-fuel guest for.
            let (short, retired, left, _) = run(Some(n - 1));
            assert_eq!(
                (short, retired, left),
                (Err(Trap::OutOfFuel), n, Some(0)),
                "{name} {tier:?} fuel n-1"
            );

            let (half, retired, left, _) = run(Some(n / 2));
            assert_eq!(
                (half, retired, left),
                (Err(Trap::OutOfFuel), n / 2 + 1, Some(0)),
                "{name} {tier:?} fuel n/2"
            );
        }
    }
}

/// A guest that never becomes ready is stopped by the epoch watchdog on
/// the unit that completes the `deadline`-th tick, whatever the tick size.
#[test]
fn epoch_traps_land_on_the_exact_unit() {
    // The clock never reaches the readiness time: the guest polls forever.
    let module = Arc::new(decode_module(hung_service_module(u64::MAX)).expect("guest decodes"));
    for tier in TIERS {
        for tick_instrs in [1u64, 7, 10_000] {
            for deadline in [1u64, 3] {
                let clock = EpochClock::new();
                let epoch = EpochConfig { clock: clock.clone(), deadline, tick_instrs };
                let (mut inst, _) = instantiate(
                    &module,
                    InstanceConfig { tier, epoch: Some(epoch), ..Default::default() },
                );
                assert_eq!(inst.run_start(), Err(Trap::Interrupted));
                let what = format!("{tier:?} tick={tick_instrs} deadline={deadline}");
                assert_eq!(inst.stats().instrs_retired, tick_instrs * deadline, "{what}");
                assert_eq!(clock.now(), deadline, "{what}");
            }
        }
    }
}

/// Fuel and epoch together: whichever event comes first wins, and when
/// both fall on the same unit the fuel check runs first.
#[test]
fn fuel_and_epoch_interleave_exactly() {
    let module = Arc::new(decode_module(hung_service_module(u64::MAX)).expect("guest decodes"));
    for tier in TIERS {
        let run = |fuel: u64, tick_instrs: u64, deadline: u64| {
            let epoch = EpochConfig { clock: EpochClock::new(), deadline, tick_instrs };
            let config =
                InstanceConfig { tier, fuel: Some(fuel), epoch: Some(epoch), ..Default::default() };
            let (mut inst, _) = instantiate(&module, config);
            let outcome = inst.run_start();
            (outcome, inst.stats().instrs_retired, inst.fuel_remaining())
        };
        // Tick 50 × deadline 4 = unit 200.
        assert_eq!(run(1_000, 50, 4), (Err(Trap::Interrupted), 200, Some(800)), "{tier:?}");
        assert_eq!(run(200, 50, 4), (Err(Trap::Interrupted), 200, Some(0)), "{tier:?}");
        assert_eq!(run(199, 50, 4), (Err(Trap::OutOfFuel), 200, Some(0)), "{tier:?}");
        assert_eq!(run(120, 50, 4), (Err(Trap::OutOfFuel), 121, Some(0)), "{tier:?}");
    }
}
