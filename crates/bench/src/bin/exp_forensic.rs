//! E8: forensic unrecoverability across engine configurations.
//!
//! 500 tuples degrade one step; an offline attacker then greps the raw heap
//! and WAL images for every accurate address fragment. Four configurations
//! factor the two mechanisms: heap policy {naive, overwrite} × WAL
//! {plain, sealed}. Expected: each naive/plain channel leaks independently;
//! only overwrite+sealed reaches zero before checkpoint, and checkpoint
//! truncation closes the plaintext-log channel after the fact.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_forensic`

use instant_bench::{setup, Report};
use instant_common::{Duration, MockClock, Value};
use instant_core::baseline::Protection;
use instant_core::db::WalMode;
use instant_lcp::AttributeLcp;
use instant_storage::SecurePolicy;
use instant_workload::attacker::forensic_needles;
use instant_workload::location::LocationDomain;
use instant_workload::rng::Rng;

const TUPLES: usize = 500;

fn main() {
    let domain = setup::location_domain();
    let mut r = Report::new(
        "E8 — forensic recovery of degraded values (500 tuples, fragment grep)",
        &[
            "config",
            "heap hits",
            "wal hits",
            "recovered pre-ckpt",
            "recovered post-ckpt",
        ],
    );
    for (name, secure, wal) in [
        (
            "naive+plain (classical)",
            SecurePolicy::Naive,
            WalMode::Plain,
        ),
        ("naive+sealed", SecurePolicy::Naive, WalMode::Sealed),
        ("overwrite+plain", SecurePolicy::Overwrite, WalMode::Plain),
        (
            "overwrite+sealed (ours)",
            SecurePolicy::Overwrite,
            WalMode::Sealed,
        ),
    ] {
        let (heap_hits, wal_hits, pre, post, total) = run(&domain, secure, wal);
        r.row_strings(vec![
            name.to_string(),
            heap_hits.to_string(),
            wal_hits.to_string(),
            format!("{pre}/{total}"),
            format!("{post}/{total}"),
        ]);
    }
    r.emit("e8_forensic");
}

fn run(
    domain: &LocationDomain,
    secure: SecurePolicy,
    wal_mode: WalMode,
) -> (usize, usize, usize, usize, usize) {
    let clock = MockClock::new();
    let scheme = Protection::Degradation(
        AttributeLcp::from_pairs(&[(0, Duration::hours(1)), (2, Duration::days(30))]).unwrap(),
    );
    let db = setup::events_db(&clock, domain, &scheme, |cfg| {
        cfg.secure = secure;
        cfg.wal_mode = wal_mode;
        cfg.buffer_frames = 2048;
    });
    let mut rng = Rng::new(99);
    let mut fragments: std::collections::HashSet<String> = Default::default();
    for i in 0..TUPLES {
        let addr = domain.sample_address(&mut rng).to_string();
        // The distinctive fragment is the address suffix (city prefix is
        // shared with the degraded form, so it would false-positive).
        let frag = addr
            .rsplit('/')
            .next()
            .expect("generated addresses contain '/'")
            .to_string();
        fragments.insert(format!("/{frag}"));
        db.insert(
            "events",
            &[
                Value::Int(i as i64),
                Value::Str(format!("user{}", i % 50)),
                Value::Str(addr),
            ],
        )
        .unwrap();
    }
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();

    let scanner = forensic_needles(fragments.iter().map(|s| s.as_str()));
    let images = db.forensic_images().unwrap();
    let heap_img = &images.iter().find(|(n, _)| n == "heap").unwrap().1;
    let wal_img = images
        .iter()
        .find(|(n, _)| n == "wal")
        .map(|(_, b)| b.clone())
        .unwrap_or_default();
    let heap_report = scanner.scan([heap_img.as_slice()]);
    let wal_report = scanner.scan([wal_img.as_slice()]);
    let pre = scanner
        .scan([heap_img.as_slice(), wal_img.as_slice()])
        .recovered
        .len();

    db.checkpoint().unwrap();
    let images2 = db.forensic_images().unwrap();
    let slices: Vec<&[u8]> = images2.iter().map(|(_, b)| b.as_slice()).collect();
    let post = scanner.scan(slices).recovered.len();

    (
        heap_report.occurrences,
        wal_report.occurrences,
        pre,
        post,
        fragments.len(),
    )
}
