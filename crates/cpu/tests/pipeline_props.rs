//! Property tests of the pipeline: for random well-formed instruction
//! streams, the simulation must terminate, retire everything exactly
//! once, account every cycle, and replay deterministically.

use visim_cpu::{CpuConfig, Pipeline, SimSink};
use visim_isa::{BranchInfo, Inst, MemKind, MemRef, Op, Reg};
use visim_mem::MemConfig;
use visim_util::prop::{self, Config, Shrink};
use visim_util::{prop_assert, prop_assert_eq, Rng};

/// A compact generator-friendly instruction description.
#[derive(Debug, Clone, Copy)]
enum Gen {
    Alu { dep: bool },
    Mul,
    Fp,
    Div,
    Vis(u8),
    Load { addr: u16 },
    Store { addr: u16 },
    Prefetch { addr: u16 },
    Branch { taken: bool, backward: bool },
}

// No value-level candidates: streams shrink structurally (the Vec
// harness drops and halves elements).
impl Shrink for Gen {}

fn arb_gen(rng: &mut Rng) -> Gen {
    match rng.gen_range(0u32..9) {
        0 => Gen::Alu { dep: rng.bool() },
        1 => Gen::Mul,
        2 => Gen::Fp,
        3 => Gen::Div,
        4 => Gen::Vis(rng.gen_range(0u8..6)),
        5 => Gen::Load { addr: rng.u16() },
        6 => Gen::Store { addr: rng.u16() },
        7 => Gen::Prefetch { addr: rng.u16() },
        _ => Gen::Branch {
            taken: rng.bool(),
            backward: rng.bool(),
        },
    }
}

fn materialize(gens: &[Gen]) -> Vec<Inst> {
    let mut out = Vec::with_capacity(gens.len());
    let mut reg = 1u32;
    let mut last = Reg::NONE;
    for (i, g) in gens.iter().enumerate() {
        let pc = 0x1000 + (i as u64 % 37) * 4;
        let fresh = |reg: &mut u32| {
            let r = Reg(*reg);
            *reg += 1;
            r
        };
        let inst = match *g {
            Gen::Alu { dep } => {
                let d = fresh(&mut reg);
                let src = if dep { last } else { Reg::NONE };
                Inst::compute(Op::IntAlu, pc, d, [src, Reg::NONE, Reg::NONE])
            }
            Gen::Mul => Inst::compute(
                Op::IntMul,
                pc,
                fresh(&mut reg),
                [last, Reg::NONE, Reg::NONE],
            ),
            Gen::Fp => Inst::compute(Op::FpOp, pc, fresh(&mut reg), [Reg::NONE; 3]),
            Gen::Div => Inst::compute(Op::FpDiv, pc, fresh(&mut reg), [Reg::NONE; 3]),
            Gen::Vis(k) => {
                let op = [
                    Op::VisAdd,
                    Op::VisMul,
                    Op::VisPack,
                    Op::VisPdist,
                    Op::VisLogic,
                    Op::VisMerge,
                ][k as usize % 6];
                Inst::compute(op, pc, fresh(&mut reg), [last, Reg::NONE, Reg::NONE])
            }
            Gen::Load { addr } => Inst::memory(
                Op::Load,
                pc,
                fresh(&mut reg),
                [Reg::NONE; 3],
                MemRef {
                    addr: 0x1_0000 + (addr as u64) * 8,
                    size: 8,
                    kind: MemKind::Load,
                },
            ),
            Gen::Store { addr } => Inst::memory(
                Op::Store,
                pc,
                Reg::NONE,
                [last, Reg::NONE, Reg::NONE],
                MemRef {
                    addr: 0x1_0000 + (addr as u64) * 8,
                    size: 8,
                    kind: MemKind::Store,
                },
            ),
            Gen::Prefetch { addr } => Inst::memory(
                Op::Prefetch,
                pc,
                Reg::NONE,
                [Reg::NONE; 3],
                MemRef {
                    addr: 0x1_0000 + (addr as u64) * 8,
                    size: 8,
                    kind: MemKind::Prefetch,
                },
            ),
            Gen::Branch { taken, backward } => Inst::control(
                Op::Branch,
                pc,
                [last, Reg::NONE, Reg::NONE],
                BranchInfo::cond(taken, backward),
            ),
        };
        if inst.dst.is_some() {
            last = inst.dst;
        }
        out.push(inst);
    }
    out
}

fn run(insts: &[Inst], cfg: CpuConfig) -> visim_cpu::Summary {
    let mut p = Pipeline::new(cfg, MemConfig::default());
    for &i in insts {
        p.push(i);
    }
    p.finish()
}

#[test]
fn random_streams_retire_everything() {
    prop::check(
        Config::cases(48),
        |rng| rng.vec(1..400, arb_gen),
        |gens: &Vec<Gen>| {
            if gens.is_empty() {
                return Ok(());
            }
            let insts = materialize(gens);
            for cfg in [
                CpuConfig::inorder_1way(),
                CpuConfig::inorder_4way(),
                CpuConfig::ooo_4way(),
            ] {
                let s = run(&insts, cfg);
                prop_assert_eq!(s.cpu.retired, insts.len() as u64);
                let b = s.cpu.breakdown();
                prop_assert!(
                    (b.total() - s.cycles() as f64).abs() < 1e-6,
                    "attribution covers every cycle"
                );
                prop_assert!(
                    s.cycles() >= (insts.len() as u64).div_ceil(4),
                    "cannot beat the retire width"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn replay_is_deterministic() {
    prop::check(
        Config::cases(48),
        |rng| rng.vec(1..200, arb_gen),
        |gens: &Vec<Gen>| {
            let insts = materialize(gens);
            let a = run(&insts, CpuConfig::ooo_4way());
            let b = run(&insts, CpuConfig::ooo_4way());
            prop_assert_eq!(a.cycles(), b.cycles());
            prop_assert_eq!(a.mem, b.mem);
            prop_assert_eq!(a.cpu.mispredicts, b.cpu.mispredicts);
            Ok(())
        },
    );
}

#[test]
fn ooo_never_loses_to_inorder() {
    prop::check(
        Config::cases(48),
        |rng| rng.vec(1..300, arb_gen),
        |gens: &Vec<Gen>| {
            let insts = materialize(gens);
            let io = run(&insts, CpuConfig::inorder_4way());
            let ooo = run(&insts, CpuConfig::ooo_4way());
            // Same width, strictly more scheduling freedom: allow a tiny
            // tolerance for edge effects at the end of the stream.
            prop_assert!(
                ooo.cycles() <= io.cycles() + 4,
                "ooo {} vs inorder {}",
                ooo.cycles(),
                io.cycles()
            );
            Ok(())
        },
    );
}

/// Digest of everything a run reports that the issue stage can move:
/// cycles, the four attribution accumulators, the retired mix, the
/// memory statistics and the window-occupancy histogram.
fn summary_digest(s: &visim_cpu::Summary) -> u64 {
    use visim_obs::codec::ByteWriter;
    let mut w = ByteWriter::new();
    let a = s.cpu.attribution();
    for v in [
        s.cpu.cycles,
        a.busy_units,
        a.fu_stall_units,
        a.l1_hit_units,
        a.l1_miss_units,
    ] {
        w.put_u64(v);
    }
    for v in s.cpu.mix {
        w.put_u64(v);
    }
    s.mem.encode_into(&mut w);
    s.metrics
        .histogram("cpu.window_occupancy")
        .expect("window occupancy is always recorded")
        .encode_into(&mut w);
    visim_util::fnv1a64(&w.into_bytes())
}

/// The configurations the golden test pins: the paper's three cores,
/// out-of-order windows on and off powers of two, narrow and wide
/// issue, and blocking loads under both issue policies.
fn golden_configs() -> Vec<(&'static str, CpuConfig)> {
    let ooo = CpuConfig::ooo_4way;
    let mut out = vec![
        ("inorder_1way", CpuConfig::inorder_1way()),
        ("inorder_4way", CpuConfig::inorder_4way()),
        ("ooo_4way", ooo()),
    ];
    for (name, window) in [
        ("ooo_window16", 16),
        ("ooo_window48", 48),
        ("ooo_window100", 100),
        ("ooo_window128", 128),
    ] {
        out.push((name, CpuConfig { window, ..ooo() }));
    }
    out.push((
        "ooo_width2",
        CpuConfig {
            issue_width: 2,
            ..ooo()
        },
    ));
    out.push((
        "ooo_width8",
        CpuConfig {
            issue_width: 8,
            ..ooo()
        },
    ));
    out.push((
        "inorder_4way_window48",
        CpuConfig {
            window: 48,
            ..CpuConfig::inorder_4way()
        },
    ));
    out.push((
        "ooo_blocking_loads",
        CpuConfig {
            blocking_loads: true,
            ..ooo()
        },
    ));
    out.push((
        "inorder_4way_blocking_loads",
        CpuConfig {
            blocking_loads: true,
            ..CpuConfig::inorder_4way()
        },
    ));
    out
}

/// Exact-result pin for the issue stage, recorded with an exhaustive
/// per-cycle scan of the window: any change to an issue cycle shows up
/// as a changed cycle count, attribution, memory statistic or
/// occupancy bucket here. The committed figures only cover the paper's
/// three cores, so this is the one exact check on the other windows,
/// widths and on blocking loads.
#[test]
fn golden_issue_stage_digests() {
    const STREAMS: u64 = 8;
    const LEN: usize = 4000;
    // Odd seeds turn branches into dependent ALU ops: without a
    // mispredict every ~18 instructions the deep windows fill up.
    let streams: Vec<Vec<Inst>> = (0..STREAMS)
        .map(|seed| {
            let mut rng = Rng::seed_from_u64(0x9e37_79b9 ^ seed);
            let gens: Vec<Gen> = (0..LEN)
                .map(|_| match arb_gen(&mut rng) {
                    Gen::Branch { .. } if seed % 2 == 1 => Gen::Alu { dep: true },
                    g => g,
                })
                .collect();
            materialize(&gens)
        })
        .collect();
    let expected: &[(&str, u64)] = &[
        ("inorder_1way", 0x39c01d010fb375dc),
        ("inorder_4way", 0x6272059f9de402bd),
        ("ooo_4way", 0x7e2e2143326074a5),
        ("ooo_window16", 0xb723bc92c699ea70),
        ("ooo_window48", 0x9a5093b8d6b31ea3),
        ("ooo_window100", 0x1f1b4736e36aa5f5),
        ("ooo_window128", 0x087bf50334db1287),
        ("ooo_width2", 0xf46f21d430bc0375),
        ("ooo_width8", 0xc7b06ce9dab18843),
        ("inorder_4way_window48", 0xd6c912f29fd66af5),
        ("ooo_blocking_loads", 0x1f4de99f9702a12d),
        ("inorder_4way_blocking_loads", 0x65ee57cbf9ca9472),
    ];
    let mut got = Vec::new();
    for (name, cfg) in golden_configs() {
        let mut h = 0u64;
        for insts in &streams {
            let s = run(insts, cfg.clone());
            assert_eq!(s.cpu.retired, insts.len() as u64, "{name}");
            h = visim_util::fnv1a64(&[h.to_le_bytes(), summary_digest(&s).to_le_bytes()].concat());
        }
        got.push((name, h));
    }
    let table: String = got
        .iter()
        .map(|(n, h)| format!("        (\"{n}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), expected.len(), "digest table:\n{table}");
    for ((name, h), (ename, eh)) in got.iter().zip(expected) {
        assert_eq!(name, ename, "digest table:\n{table}");
        assert_eq!(h, eh, "{name} changed; digest table:\n{table}");
    }
}

/// The self-dependency wedge (an instruction reading its own
/// destination) must fault at exactly the same cycle under every issue
/// policy: the watchdog deadline and the idle-skip bounds around it
/// are part of the issue stage's contract.
#[test]
fn golden_self_dependency_wedge_cycle() {
    let mut got = Vec::new();
    for cfg in [
        CpuConfig::inorder_1way(),
        CpuConfig::inorder_4way(),
        CpuConfig::ooo_4way(),
    ] {
        let mut cfg = cfg;
        cfg.watchdog_cycles = 2_000;
        let mut p = Pipeline::new(cfg, MemConfig::default());
        p.push(Inst::compute(Op::IntAlu, 0x100, Reg(1), [Reg::NONE; 3]));
        p.push(Inst::compute(
            Op::IntAlu,
            0x104,
            Reg(7),
            [Reg(7), Reg::NONE, Reg::NONE],
        ));
        p.push(Inst::compute(Op::IntAlu, 0x108, Reg(2), [Reg::NONE; 3]));
        match p.try_finish() {
            Err(visim_util::SimError::CycleBudget { cycle, .. }) => got.push(cycle),
            other => panic!("expected CycleBudget, got {other:?}"),
        }
    }
    assert_eq!(got, [2003u64; 3]);
}
