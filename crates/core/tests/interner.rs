//! The interner's pointer map holds only cells' own allocations: a
//! structural (hash) hit resolves to the existing cell without recording
//! the probing allocation, so re-consing equal terms never grows the map.
//!
//! One test per binary: nothing else conses while it counts.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::store::{ptr_map_len, store_stats};
use bpi_core::{canon, cons};
use std::sync::Arc;

#[test]
fn hash_hits_leave_the_pointer_map_unchanged() {
    let [a, b, x] = [
        Name::intern_raw("interner-a"),
        Name::intern_raw("interner-b"),
        Name::intern_raw("interner-x"),
    ];
    let make = || par(out(a, [b], tau(nil())), new(x, inp_(a, [x])));
    let first = make();
    let cell = cons(&first);
    let len = ptr_map_len();
    let (_, hash_hits, misses) = store_stats();

    let copies: Vec<_> = (0..16).map(|_| make()).collect();
    for p in &copies {
        let c = cons(p);
        assert_eq!(c, cell);
        assert!(Arc::ptr_eq(c.term(), &first));
    }
    let (_, hash_hits_after, misses_after) = store_stats();
    assert_eq!(hash_hits_after - hash_hits, 16);
    assert_eq!(misses_after, misses);
    assert_eq!(
        ptr_map_len(),
        len,
        "hash hits must not write the pointer map"
    );

    // A canonical term is its own canonical form, so re-interning the
    // canonical form of a cell's term is a pointer hit.
    let canonical = cons(&canon(&first));
    let len = ptr_map_len();
    let (ptr_hits, _, _) = store_stats();
    let again = canon(canonical.term());
    assert!(Arc::ptr_eq(&again, canonical.term()));
    assert_eq!(cons(&again), canonical);
    assert_eq!(store_stats().0, ptr_hits + 1);
    assert_eq!(ptr_map_len(), len);
}
