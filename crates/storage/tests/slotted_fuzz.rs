//! Property tests: slotted-page operations never corrupt live records, and
//! secure mode never leaks deleted bytes.

use instant_common::SlotId;
use instant_storage::page::PAGE_PAYLOAD;
use instant_storage::secure::SecurePolicy;
use instant_storage::slotted::SlottedPage;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        len: usize,
        cap_extra: usize,
        fill: u8,
    },
    Rewrite {
        pick: usize,
        len: usize,
        fill: u8,
    },
    Delete {
        pick: usize,
    },
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..200, 0usize..64, any::<u8>())
            .prop_map(|(len, cap_extra, fill)| Op::Insert { len, cap_extra, fill }),
        3 => (any::<prop::sample::Index>(), 1usize..200, any::<u8>())
            .prop_map(|(p, len, fill)| Op::Rewrite { pick: p.index(1000), len, fill }),
        2 => any::<prop::sample::Index>().prop_map(|p| Op::Delete { pick: p.index(1000) }),
        1 => Just(Op::Compact),
    ]
}

fn run_fuzz(ops: Vec<Op>, policy: SecurePolicy) -> Result<(), TestCaseError> {
    let mut buf = vec![0u8; PAGE_PAYLOAD];
    let mut page = SlottedPage::init(&mut buf);
    // Model: slot -> (cap, bytes)
    let mut model: HashMap<SlotId, (usize, Vec<u8>)> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert {
                len,
                cap_extra,
                fill,
            } => {
                let data = vec![fill; len];
                let cap = len + cap_extra;
                match page.insert(&data, cap) {
                    Ok(slot) => {
                        model.insert(slot, (cap, data));
                    }
                    Err(_) => {
                        // Page full is legal; nothing changed.
                    }
                }
            }
            Op::Rewrite { pick, len, fill } => {
                let slots: Vec<SlotId> = model.keys().copied().collect();
                if slots.is_empty() {
                    continue;
                }
                let slot = slots[pick % slots.len()];
                let (cap, _) = model[&slot];
                let data = vec![fill; len];
                match page.update(slot, &data, policy) {
                    Ok(()) => {
                        prop_assert!(len <= cap, "update beyond cap must fail");
                        model.get_mut(&slot).unwrap().1 = data;
                    }
                    Err(_) => prop_assert!(len > cap, "in-cap update must succeed"),
                }
            }
            Op::Delete { pick } => {
                let slots: Vec<SlotId> = model.keys().copied().collect();
                if slots.is_empty() {
                    continue;
                }
                let slot = slots[pick % slots.len()];
                page.delete(slot, policy).unwrap();
                model.remove(&slot);
            }
            Op::Compact => {
                page.compact();
            }
        }
        // Every live record reads back exactly.
        for (slot, (_, data)) in &model {
            prop_assert_eq!(page.read(*slot).unwrap(), data.as_slice());
        }
        prop_assert_eq!(page.live_slots().len(), model.len());
    }
    Ok(())
}

proptest! {
    #[test]
    fn fuzz_secure(ops in proptest::collection::vec(arb_op(), 1..250)) {
        run_fuzz(ops, SecurePolicy::Overwrite)?;
    }

    #[test]
    fn fuzz_naive(ops in proptest::collection::vec(arb_op(), 1..250)) {
        run_fuzz(ops, SecurePolicy::Naive)?;
    }

    /// Secure delete + compact leaves zero trace of a sentinel pattern.
    #[test]
    fn secure_delete_never_leaks(payload in proptest::collection::vec(1u8..255, 8..64)) {
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        {
            let mut page = SlottedPage::init(&mut buf);
            let slot = page.insert(&payload, payload.len() + 16).unwrap();
            page.insert(b"survivor", 16).unwrap();
            page.delete(slot, SecurePolicy::Overwrite).unwrap();
        }
        // The deleted payload must not appear anywhere in the raw buffer.
        if payload.len() >= 8 {
            let found = buf.windows(payload.len()).any(|w| w == payload.as_slice());
            prop_assert!(!found, "secure-deleted bytes survived in the page");
        }
    }
}
