//! Golden text of the verification harnesses' replay headers and fault
//! lines. A model-check dump replays from its `# scenario:` line and a
//! chaos dump from its `# config:` line and `@tick fault` lines, so the
//! text each config and each fault is written as, and what that text
//! reads back to, is a compatibility surface: a dump committed today
//! must replay the same world tomorrow.
//!
//! Pinned here:
//!
//! * the `# scenario:` text of `ModelCheckConfig::default()` and of the
//!   config of every model-check leg of `scripts/check.sh`, and that the
//!   pinned text reads back to exactly that config. A newer build may
//!   append words after the pinned ones (`NEWER_WORDS`), never change or
//!   reorder them;
//! * what the `# scenario:` lines of the committed fixtures read back to,
//!   the older decimal `max_delay=5.000ms` form included;
//! * the `# config:` text of `ChaosConfig::default()` and
//!   `ChaosConfig::merge_torture(7)`, and what it reads back to;
//! * one `ChaosEvent` line per fault class, with its `class()`.

use raincore_net::Addr;
use raincore_sim::chaos::{ChaosConfig, ChaosEvent, ChaosFault};
use raincore_sim::explore::Reduction;
use raincore_sim::ModelCheckConfig;
use raincore_types::{Duration, NodeId};

/// What may follow the pinned words of a model-check header: nothing,
/// or the words of fields a newer build writes after them.
const NEWER_WORDS: &[&str] = &["", " bulk_blind_delivery=false"];

fn reads_back(header: &str) -> ModelCheckConfig {
    let mut cfg = ModelCheckConfig::default();
    cfg.read_scenario(&format!("# scenario: {header}\n"))
        .unwrap_or_else(|e| panic!("{header}: {e}"));
    cfg
}

fn assert_scenario(name: &str, cfg: &ModelCheckConfig, pinned: &str) {
    let written = cfg.scenario();
    let tail = written.strip_prefix(pinned);
    assert!(
        tail.is_some_and(|t| NEWER_WORDS.contains(&t)),
        "{name}: header text moved\n  pinned:  {pinned}\n  written: {written}"
    );
    assert_eq!(
        format!("{:?}", reads_back(pinned)),
        format!("{cfg:?}"),
        "{name}: the pinned header reads back to another world"
    );
}

/// Timeouts the benchmark pins (`--retry-ms 50 --hungry-ms 400`).
fn stock(mut cfg: ModelCheckConfig) -> ModelCheckConfig {
    cfg.transport.retry_timeout = Duration::from_millis(50);
    cfg.session.hungry_timeout = Duration::from_millis(400);
    cfg
}

#[test]
fn model_check_leg_headers_are_pinned() {
    let base = ModelCheckConfig::default;
    let four = |reduction| ModelCheckConfig {
        nodes: 4,
        max_depth: 10,
        max_schedules: 2_000_000,
        reduction,
        ..base()
    };
    let early = |reduction| {
        let mut cfg = ModelCheckConfig {
            max_depth: 12,
            max_schedules: 2_000_000,
            seed_bulk: vec![(NodeId(0), 30), (NodeId(0), 30), (NodeId(1), 30)],
            reduction,
            ..base()
        };
        cfg.transport.mtu = 64;
        cfg
    };
    let freight = |reduction| {
        let mut cfg = ModelCheckConfig {
            max_depth: 11,
            max_schedules: 2_000_000,
            bulk_drop_budget: 1,
            seed_bulk: vec![(NodeId(1), 120)],
            reduction,
            ..base()
        };
        cfg.transport.mtu = 64;
        cfg.session.bulk_threshold = 100;
        cfg
    };
    let lost = |reduction| ModelCheckConfig {
        max_depth: 14,
        max_schedules: 2_000_000,
        warm_rotations: 4,
        reduction,
        ..base()
    };
    let mut unarmed = ModelCheckConfig {
        max_depth: 14,
        warm_rotations: 4,
        ..base()
    };
    unarmed.session.hungry_timeout = Duration::from_millis(40);

    let legs = [
        (
            "default",
            base(),
            "nodes=3 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=12000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "--seeded-check",
            ModelCheckConfig {
                forge_token: true,
                ..base()
            },
            "nodes=3 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=12000 forge_token=true reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "5-node seeded",
            ModelCheckConfig {
                nodes: 5,
                max_schedules: 40_000,
                forge_token: true,
                ..base()
            },
            "nodes=5 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=40000 forge_token=true reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "4-node",
            four(Reduction::Hash),
            "nodes=4 depth=10 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "4-node without the cache",
            four(Reduction::None),
            "nodes=4 depth=10 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=None mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "early-pass",
            early(Reduction::Hash),
            "nodes=3 depth=12 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=Hash mtu=64 \
             multicasts=0:30,0:30,1:30 bulk_threshold=0 warm_rotations=0 retry_timeout=10ms \
             hungry_timeout=100ms",
        ),
        (
            "early-pass without the cache",
            early(Reduction::None),
            "nodes=3 depth=12 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=None mtu=64 \
             multicasts=0:30,0:30,1:30 bulk_threshold=0 warm_rotations=0 retry_timeout=10ms \
             hungry_timeout=100ms",
        ),
        (
            "freight",
            freight(Reduction::Hash),
            "nodes=3 depth=11 crash_budget=1 drop_budget=1 bulk_drop_budget=1 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=Hash mtu=64 multicasts=1:120 \
             bulk_threshold=100 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "freight without the cache",
            freight(Reduction::None),
            "nodes=3 depth=11 crash_budget=1 drop_budget=1 bulk_drop_budget=1 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=None mtu=64 multicasts=1:120 \
             bulk_threshold=100 warm_rotations=0 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "adaptive-timer",
            stock(base()),
            "nodes=3 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=12000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=50ms hungry_timeout=400ms",
        ),
        (
            "4-node adaptive-timer",
            stock(four(Reduction::Hash)),
            "nodes=4 depth=10 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=0 retry_timeout=50ms hungry_timeout=400ms",
        ),
        (
            "lost-token",
            lost(Reduction::Hash),
            "nodes=3 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=4 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "lost-token without the cache",
            lost(Reduction::None),
            "nodes=3 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=None mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=4 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "lost-token at the stock timeouts",
            stock(ModelCheckConfig {
                max_depth: 16,
                warm_rotations: 4,
                ..base()
            }),
            "nodes=3 depth=16 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=12000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=4 retry_timeout=50ms hungry_timeout=400ms",
        ),
        (
            "4-node lost-token",
            ModelCheckConfig {
                nodes: 4,
                max_depth: 14,
                max_schedules: 2_000_000,
                warm_rotations: 4,
                ..base()
            },
            "nodes=4 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=2000000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=4 retry_timeout=10ms hungry_timeout=100ms",
        ),
        (
            "lost-token guard (no probe armed)",
            unarmed,
            "nodes=3 depth=14 crash_budget=1 drop_budget=1 bulk_drop_budget=0 max_delay=5ms \
             max_schedules=12000 forge_token=false reduction=Hash mtu=1400 multicasts= \
             bulk_threshold=0 warm_rotations=4 retry_timeout=10ms hungry_timeout=40ms",
        ),
    ];
    for (name, cfg, pinned) in &legs {
        assert_scenario(name, cfg, pinned);
    }
}

#[test]
fn committed_forged_token_fixtures_read_back_to_their_worlds() {
    // Written by an older build: four or five words, the delay in the
    // decimal form of `Duration`'s `Debug`.
    let three = ModelCheckConfig {
        forge_token: true,
        ..ModelCheckConfig::default()
    };
    let four = ModelCheckConfig {
        nodes: 4,
        crash_budget: 0,
        drop_budget: 0,
        forge_token: true,
        ..ModelCheckConfig::default()
    };
    for (text, cfg) in [
        (include_str!("fixtures/forged_token_3node.txt"), three),
        (include_str!("fixtures/forged_token_4node.txt"), four),
    ] {
        let mut read = ModelCheckConfig::default();
        read.read_scenario(text).expect("the fixture header parses");
        assert_eq!(format!("{read:?}"), format!("{cfg:?}"));
    }
}

#[test]
fn chaos_config_headers_are_pinned() {
    for (cfg, pinned) in [
        (
            ChaosConfig::default(),
            "nodes=5 nics=2 seed=1 scenario=founding ticks=500 tick_us=10000 warmup=100 \
             fault_period=25 workload=10 grace=150 token_bound=150 conv_bound=1500 post=100 \
             seeded_fault=false bulk_threshold=0 pad=0 delay_spike=0",
        ),
        (
            ChaosConfig::merge_torture(7),
            "nodes=5 nics=2 seed=7 scenario=founding ticks=300 tick_us=10000 warmup=100 \
             fault_period=20 workload=10 grace=150 token_bound=150 conv_bound=1500 post=100 \
             seeded_fault=false bulk_threshold=0 pad=0 delay_spike=0",
        ),
    ] {
        assert_eq!(cfg.header_line(), pinned);
        let read = ChaosConfig::from_header_line(pinned).expect("the pinned line parses");
        assert_eq!(format!("{read:?}"), format!("{cfg:?}"));
    }
}

#[test]
fn one_event_line_per_fault_class_is_pinned() {
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let lines = [
        ("@3 crash n2", ChaosFault::Crash(n2), "crash"),
        ("@5 restart n2", ChaosFault::Restart(n2), "restart"),
        (
            "@7 link-down n0 n3",
            ChaosFault::LinkDown(n0, n3),
            "link-down",
        ),
        ("@8 link-up n0 n3", ChaosFault::LinkUp(n0, n3), "link-up"),
        (
            "@9 nic-down n1.1",
            ChaosFault::NicDown(Addr::new(n1, 1)),
            "nic-down",
        ),
        (
            "@10 nic-up n1.0",
            ChaosFault::NicUp(Addr::new(n1, 0)),
            "nic-up",
        ),
        (
            "@11 partition n0,n1|n2,n3",
            ChaosFault::Partition(vec![vec![n0, n1], vec![n2, n3]]),
            "partition",
        ),
        ("@12 heal", ChaosFault::Heal, "heal"),
        ("@13 dup 55", ChaosFault::Duplicate(55), "dup"),
        ("@14 reorder 80", ChaosFault::Reorder(80), "reorder"),
        ("@15 jitter 250", ChaosFault::Jitter(250), "jitter"),
        ("@16 bulk-loss 300", ChaosFault::BulkLoss(300), "bulk-loss"),
        (
            "@17 delay-spike 47000",
            ChaosFault::DelaySpike(47_000),
            "delay-spike",
        ),
    ];
    for (line, fault, class) in lines {
        let event: ChaosEvent = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(event.fault, fault, "{line}");
        assert_eq!(event.to_string(), line);
        assert_eq!(fault.class(), class, "{line}");
    }
}
