//! Fan-in is capped at `MAX_FANIN` (256): input pins are addressed by a
//! `u8`, so a wider gate would alias pin 256 onto pin 0. Both readers
//! report an over-wide gate as a line-located error; a gate of exactly
//! the cap is accepted.

use dft_netlist::{bench_format, blif, GateKind, Netlist, NetlistError, MAX_FANIN};

/// A `.bench` design whose line 3 is an OR over `width` inputs.
fn wide_bench(width: usize) -> String {
    let ins: Vec<String> = (0..width).map(|i| format!("x{i}")).collect();
    format!(
        "# wide OR\nOUTPUT(y)\ny = OR({})\n{}",
        ins.join(", "),
        ins.iter()
            .map(|x| format!("INPUT({x})\n"))
            .collect::<String>()
    )
}

/// A BLIF design whose line 4 is the `.names` of an AND over `width`
/// inputs (a single all-ones cube).
fn wide_blif(width: usize) -> String {
    let ins: Vec<String> = (0..width).map(|i| format!("x{i}")).collect();
    format!(
        ".model wide\n.inputs {}\n.outputs y\n.names {} y\n{} 1\n.end\n",
        ins.join(" "),
        ins.join(" "),
        "1".repeat(width)
    )
}

#[test]
fn bench_rejects_fanin_above_the_cap_with_its_line() {
    let err = bench_format::parse(&wide_bench(MAX_FANIN + 1), "wide").unwrap_err();
    assert_eq!(err.line, 3);
    assert!(
        err.message.contains("fan-in <= 256, got 257"),
        "{}",
        err.message
    );
    let n = bench_format::parse(&wide_bench(MAX_FANIN), "wide").unwrap();
    let y = n.find_output("y").unwrap();
    assert_eq!(n.gate(y).fanin(), MAX_FANIN);
}

#[test]
fn blif_rejects_fanin_above_the_cap_with_its_line() {
    let err = blif::parse(&wide_blif(MAX_FANIN + 1), "wide").unwrap_err();
    assert_eq!(err.line, 4);
    assert!(
        err.message.contains("fan-in <= 256, got 257"),
        "{}",
        err.message
    );
    let n = blif::parse(&wide_blif(MAX_FANIN), "wide").unwrap();
    let y = n.find_output("y").unwrap();
    assert_eq!(n.gate(y).kind(), GateKind::And);
    assert_eq!(n.gate(y).fanin(), MAX_FANIN);
}

#[test]
fn builder_and_edits_reject_fanin_above_the_cap() {
    let mut n = Netlist::new("wide");
    let ins: Vec<_> = (0..=MAX_FANIN)
        .map(|i| n.add_input(format!("x{i}")))
        .collect();
    assert_eq!(
        n.add_gate(GateKind::Xor, &ins),
        Err(NetlistError::BadFanin {
            kind: GateKind::Xor,
            got: MAX_FANIN + 1
        })
    );
    let g = n.add_gate(GateKind::Xor, &ins[..MAX_FANIN]).unwrap();
    assert!(matches!(
        n.replace_gate(g, GateKind::Nor, &ins),
        Err(NetlistError::BadFanin { got: 257, .. })
    ));
}
