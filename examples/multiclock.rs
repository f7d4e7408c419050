//! Figure 2: the multi-clock read protocol, monitored by local
//! monitors synchronising through the shared scoreboard.
//!
//! Two clock domains with co-prime periods run the master side (clk1)
//! and the slave side (clk2) of a read transaction; cross-domain
//! causality arrows (`req2 → req3`, `rdy2 → rdy1`, `data2 → data1`)
//! are enforced at runtime by `Chk_evt` guards against the shared
//! scoreboard.
//!
//! ```sh
//! cargo run --example multiclock
//! ```

use cesc::core::{synthesize_multiclock, SynthOptions};
use cesc::expr::Valuation;
use cesc::protocols::readproto;
use cesc::sim::{OnlineHarness, ScriptedTransactor, Simulation};
use cesc::trace::{ClockDomain, Trace};

fn main() {
    let doc = readproto::multi_clock_doc();
    let spec = doc.multiclock_spec("read_multiclock").expect("spec present");

    println!("=== multi-clock read protocol (paper Fig 2) ===");
    for chart in spec.charts() {
        println!("{}", cesc::chart::render_ascii(chart, &doc.alphabet));
    }
    println!("cross-domain causality:");
    for arrow in spec.cross_arrows() {
        println!(
            "  {} --> {}",
            doc.alphabet.name(arrow.from),
            doc.alphabet.name(arrow.to)
        );
    }

    let mm = synthesize_multiclock(spec, &SynthOptions::default()).expect("synthesizable");
    println!("\nsynthesized: {mm}");
    for local in mm.locals() {
        println!("{}", local.display(&doc.alphabet));
    }

    // GALS simulation: clk1 period 5, clk2 period 2 (phase 1), so the
    // remote transaction nests inside the local one.
    let (w1, w2) = readproto::multi_clock_windows(&doc.alphabet);
    let mut sim = Simulation::new();
    sim.add_clock(ClockDomain::new("clk1", 5, 0));
    sim.add_clock(ClockDomain::new("clk2", 2, 1));
    sim.add_transactor(Box::new(ScriptedTransactor::new(
        "clk1",
        Trace::from_elements(w1),
    )));
    let mut t2 = w2.clone();
    t2.extend([Valuation::empty(), Valuation::empty()]);
    sim.add_transactor(Box::new(ScriptedTransactor::new(
        "clk2",
        Trace::from_elements(t2),
    )));

    let mut harness = OnlineHarness::new();
    let idx = harness.attach_multiclock(sim.clocks(), &mm);
    let run = sim.run_with(7, |clocks, step| harness.observe(clocks, step));

    println!("\n=== global run ===");
    print!("{}", run.display(&doc.alphabet));
    println!(
        "\nfull read transaction detected at global time(s): {:?}",
        harness.multiclock_hits(idx)
    );
    assert_eq!(harness.multiclock_hits(idx), &[10]);

    // sanity: the semantic oracle agrees
    let contains = cesc::semantics::multiclock_contains(spec, sim.clocks(), &run);
    println!("semantic oracle [[C]]-membership: {contains}");
    assert!(contains);

    println!("\nmulticlock OK");
}
