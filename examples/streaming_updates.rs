//! Living data: watermarking an insert stream (§4.3), expressing
//! quality rules in the constraint language (§6), and settling an
//! additive-attack ownership dispute (§6).
//!
//! ```sh
//! cargo run --release --example streaming_updates
//! ```

use catmark::prelude::*;
use catmark_core::constraint_lang;
use catmark_core::contest::{additive_attack, Claim, ContestOutcome};

fn main() {
    let gen = SalesGenerator::new(ItemScanConfig { tuples: 9_000, ..Default::default() });
    let source = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("streaming-owner")
        .e(15)
        .wm_len(10)
        .expected_tuples(source.len())
        .erasure(ErasurePolicy::Abstain)
        .build()
        .expect("valid parameters");
    let wm = Watermark::from_u64(0b1101100101, 10);

    // One session drives everything: the stream marker, the guarded
    // batch re-pass, the blind decode, and the ownership contest.
    let session = MarkSession::builder(spec.clone())
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&source)
        .expect("columns bind");

    // ---- 1. Stream ingestion (§4.3) --------------------------------------
    // New sales arrive one at a time; fit tuples are marked on the fly.
    let marker = session.stream(&wm).expect("marker configures");
    let mut live = Relation::new(source.schema().clone());
    let mut marked_count = 0usize;
    for row in 0..source.len() {
        let tuple =
            (0..source.schema().arity()).map(|attr| source.value(row, attr).expect("in range"));
        let outcome = marker.ingest(&mut live, tuple.collect()).expect("ingest");
        if outcome.marked {
            marked_count += 1;
        }
    }
    println!(
        "ingested {} tuples; {} marked on the fly (≈1/{} as configured)",
        live.len(),
        marked_count,
        spec.e
    );
    let decoded = session.decode(&live).expect("decode");
    println!("streamed relation decodes to {} (expected {wm})", decoded.watermark);

    // ---- 2. The constraint language (§6) ----------------------------------
    // A second batch pass over the same data, governed by a textual
    // usability contract.
    let program = r#"
        # usability contract for the quarterly drop
        budget 2%            # alter at most 2% of tuples
        drift <= 0.05        # histogram stays within 0.05 L1
        immutable 0..500     # first 500 rows are contractual samples
    "#;
    let mut guard =
        constraint_lang::compile(program, &live, 1, &gen.item_domain()).expect("program compiles");
    let mut governed = live.clone();
    let report = session.embed_guarded(&mut governed, &wm, &mut guard).expect("guarded embed");
    println!(
        "constraint-governed re-pass: {} altered, {} vetoed (log {} entries) — \
         0 alterations confirms stream marking left nothing for the batch pass (idempotence)",
        report.altered,
        report.vetoed,
        guard.log().len()
    );

    // ---- 3. The additive attack and its resolution (§6) -------------------
    let owner = session.claim("owner", &wm);
    let mallory_spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("mallory-keys")
        .e(15)
        .wm_len(10)
        .expected_tuples(live.len())
        .erasure(ErasurePolicy::Abstain)
        .build()
        .expect("valid parameters");
    let mallory = Claim {
        claimant: "mallory".into(),
        spec: mallory_spec,
        watermark: Watermark::from_u64(0b0010011110, 10),
    };
    let mut disputed = live.clone();
    additive_attack(&mut disputed, &mallory, "visit_nbr", "item_nbr").expect("attack");
    println!("\nMallory additively embedded her own mark over the owner's data");

    let (outcome, ev_owner, ev_mallory) =
        session.contest(&owner, &mallory, &disputed, 1e-2, 0.01).expect("contest resolves");
    println!(
        "owner evidence: {}/{} bits, vote unanimity {:.3}",
        ev_owner.detection.matched_bits, ev_owner.detection.total_bits, ev_owner.vote_unanimity
    );
    println!(
        "mallory evidence: {}/{} bits, vote unanimity {:.3}",
        ev_mallory.detection.matched_bits,
        ev_mallory.detection.total_bits,
        ev_mallory.vote_unanimity
    );
    match outcome {
        ContestOutcome::EarlierClaim(who) => {
            println!("=> contest verdict: {who} marked FIRST (overwrite damage asymmetry)");
        }
        other => println!("=> contest verdict: {other:?}"),
    }
}
