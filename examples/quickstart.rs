//! Quickstart: build the paper's multi-table lookup architecture over a
//! small hand-written rule population, classify packets, and print the
//! memory report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use openflow_mtl::prelude::*;

fn main() {
    // 1. A small routing application: IPv4 prefixes behind ingress ports.
    let rules = vec![
        route(0, 1, "10.1.2.0", 24, 7),
        route(1, 1, "10.1.0.0", 16, 5),
        route(2, 2, "10.0.0.0", 8, 3),
        route(3, 1, "0.0.0.0", 0, 1), // default route
    ];
    let set = FilterSet::new("quickstart", FilterKind::Routing, rules);
    println!("rule set: {set}");
    for r in &set.rules {
        println!("  {r}");
    }

    // 2. Compile it into the paper's architecture: one OpenFlow table per
    //    field — an exact-match LUT for the ingress port chained by
    //    Goto-Table into two parallel 16-bit multi-bit tries for the
    //    address, combined through label index tables.
    let config = SwitchConfig::single_app(FilterKind::Routing, 0);
    let switch = MtlSwitch::build(&config, &[&set]);

    // 3. Classify a few headers.
    println!("\nclassification:");
    for (port, dst) in [
        (1u32, "10.1.2.77"),
        (1, "10.1.9.9"),
        (2, "10.200.1.1"),
        (1, "192.168.0.1"),
        (9, "10.1.2.77"),
    ] {
        let header = HeaderValues::new()
            .with(MatchFieldKind::InPort, u128::from(port))
            .with(MatchFieldKind::Ipv4Dst, ip(dst));
        let result = switch.classify_app(FilterKind::Routing, &header);
        println!(
            "  in_port={port} dst={dst:<12} -> {:?}  (index probes: {})",
            result.verdict, result.probes
        );
    }

    // 4. What does it cost in embedded memory?
    let memory = SwitchMemoryReport::of(&switch);
    println!("\nmemory report:\n{memory}");

    // 5. And what did installing it cost in update records?
    let label = switch.ledger.label_stats();
    let original = switch.ledger.original_stats();
    println!(
        "\nupdate cost: label method {label}, original method {original} \
         ({:.1}% reduction)",
        100.0 * switch.ledger.reduction()
    );
}

fn route(id: u32, in_port: u32, dst: &str, len: u32, out: u32) -> Rule {
    Rule::new(
        id,
        len as u16,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(in_port))
            .expect("port fits")
            .with_prefix(MatchFieldKind::Ipv4Dst, ip(dst), len)
            .expect("prefix fits"),
        RuleAction::Forward(out),
    )
}

fn ip(s: &str) -> u128 {
    u128::from(u32::from(s.parse::<std::net::Ipv4Addr>().expect("valid IPv4")))
}
