//! MAC-learning scenario: the paper's first use case, end to end.
//!
//! Generates a MAC-learning filter set with the published statistics of a
//! Stanford backbone router, compiles it into the two-table architecture
//! (VLAN LUT -> Ethernet partition tries), classifies real packet *bytes*
//! through header extraction, and compares the decomposition engine
//! against the linear-search OpenFlow oracle on every packet.
//!
//! ```sh
//! cargo run --example mac_learning [router]
//! ```

use offilter::paper_data::mac_stats;
use offilter::synth::{generate_mac, MacTargets};
use oflow::FieldMatch;
use openflow_mtl::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let router = std::env::args().nth(1).unwrap_or_else(|| "bbra".to_owned());
    let stats = mac_stats(&router).unwrap_or_else(|| {
        eprintln!("unknown router {router}; try bbra, gozb, coza ...");
        std::process::exit(2);
    });

    // 1. Synthesize the router's MAC table with its published statistics.
    let set = generate_mac(&MacTargets::from_paper(stats), 42);
    println!(
        "{}: {} rules, {} VLANs, eth partitions {}/{}/{} unique",
        set.full_name(),
        set.len(),
        stats.vlan_unique,
        stats.eth_hi,
        stats.eth_mid,
        stats.eth_lo
    );

    // 2. Compile into the two-table architecture.
    let config = SwitchConfig::single_app(FilterKind::MacLearning, 0);
    let switch = MtlSwitch::build(&config, &[&set]);
    let memory = SwitchMemoryReport::of(&switch);
    println!("\nmemory: {}", memory.total());
    println!(
        "  eth tries: {} stored nodes, {:.1} Kbits",
        memory.report.entries_under("t1/eth_dst"),
        memory.report.bits_under("t1/eth_dst") as f64 / 1e3
    );

    // 3. Classify real frames: build packet bytes for a sample of rules,
    //    parse them back, extract header values, classify, and check the
    //    oracle agrees.
    let mut rng = StdRng::seed_from_u64(7);
    let mut agreements = 0;
    let mut hits = 0;
    let samples = 2_000;
    for _ in 0..samples {
        // Half known MACs, half random (unknown -> controller).
        let (vlan, mac) = if rng.gen_bool(0.5) {
            let r = &set.rules[rng.gen_range(0..set.len())];
            let FieldMatch::Exact(v) = r.field(MatchFieldKind::VlanVid) else { unreachable!() };
            let FieldMatch::Exact(m) = r.field(MatchFieldKind::EthDst) else { unreachable!() };
            (v as u16, m as u64)
        } else {
            (rng.gen::<u16>() & 0xFFF, rng.gen::<u64>() & 0xFFFF_FFFF_FFFF)
        };
        let frame =
            PacketBuilder::ethernet(MacAddr::from_u64(0x0200_0000_00AA), MacAddr::from_u64(mac))
                .vlan(vlan, 0)
                .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
                .udp(4000, 4000)
                .build();

        // Header extraction note: OpenFlow's vlan_vid carries a presence
        // bit; the MAC rules match the raw 12-bit VID, so mask it off.
        let parsed = parse_packet(&frame).expect("self-built frame parses");
        let mut header = parsed.header_values(1);
        if let Some(v) = header.get(MatchFieldKind::VlanVid) {
            header.set(MatchFieldKind::VlanVid, v & 0xFFF);
        }

        let got = switch.classify_app(FilterKind::MacLearning, &header);
        let want = set
            .rules
            .iter()
            .find(|r| r.flow_match.matches(&header))
            .map(|r| Verdict::Output(r.action.port().unwrap()))
            .unwrap_or(Verdict::ToController);
        if got.verdict == want {
            agreements += 1;
        }
        if matches!(got.verdict, Verdict::Output(_)) {
            hits += 1;
        }
    }
    println!(
        "\nclassified {samples} frames from raw bytes: {hits} forwarded, \
         {} punted to controller",
        samples - hits
    );
    println!("oracle agreement: {agreements}/{samples}");
    assert_eq!(agreements, samples, "decomposition must match the oracle");

    // 4. The label method's effect on updates (the Fig. 5 story).
    println!(
        "\nupdate records: label method {} vs original {} ({:.1}% fewer cycles)",
        switch.ledger.algorithm_label_records,
        switch.ledger.algorithm_original_records,
        100.0 * switch.ledger.reduction()
    );
}
