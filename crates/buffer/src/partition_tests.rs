#[cfg(test)]
mod tests {
    use dmm_sim::SimTime;

    use crate::page::{ClassId, PageId, NO_GOAL};
    use crate::policy::PolicySpec;
    use crate::tiered::{Demoted, TierPolicy, TieredAccess, TieredBuffer};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn buf() -> TieredBuffer {
        TieredBuffer::with_db_pages(&[8], 2, PolicySpec::Lru, TierPolicy::Hotness, 16)
    }

    #[test]
    fn initial_layout() {
        let b = buf();
        assert_eq!(b.pool_at(0, NO_GOAL).capacity(), 8);
        assert_eq!(b.dedicated_pages(ClassId(1)), 0);
        assert!(!b.has_dedicated(ClassId(1)));
        b.check_invariants();
    }

    #[test]
    fn miss_then_install_goes_to_no_goal_without_dedication() {
        let mut b = buf();
        assert_eq!(b.access(ClassId(1), PageId(5), t(0)), TieredAccess::Miss);
        let out = b.install(ClassId(1), PageId(5), t(1));
        assert!(out.cached && out.evicted.is_none());
        assert_eq!(b.locate(PageId(5)), Some((0, NO_GOAL)));
        b.check_invariants();
    }

    #[test]
    fn dedicated_pool_attracts_pages() {
        let mut b = buf();
        let (granted, _) = b.set_dedicated(ClassId(1), 3);
        assert_eq!(granted, 3);
        assert_eq!(b.pool_at(0, NO_GOAL).capacity(), 5);
        assert_eq!(b.access(ClassId(1), PageId(5), t(0)), TieredAccess::Miss);
        b.install(ClassId(1), PageId(5), t(1));
        assert_eq!(b.locate(PageId(5)), Some((0, ClassId(1))));
        b.check_invariants();
    }

    #[test]
    fn no_goal_hit_migrates_into_dedicated_pool() {
        let mut b = buf();
        // Page enters via a no-goal access.
        b.access(NO_GOAL, PageId(7), t(0));
        b.install(NO_GOAL, PageId(7), t(1));
        assert_eq!(b.locate(PageId(7)), Some((0, NO_GOAL)));
        // Class 1 gets a pool, then touches the page: it migrates.
        b.set_dedicated(ClassId(1), 2);
        match b.access(ClassId(1), PageId(7), t(2)) {
            TieredAccess::Hit {
                moved: true,
                evicted,
                ..
            } => assert_eq!(evicted, None),
            other => panic!("expected migration, got {other:?}"),
        }
        assert_eq!(b.locate(PageId(7)), Some((0, ClassId(1))));
        b.check_invariants();
    }

    #[test]
    fn hit_in_foreign_dedicated_pool_stays_put() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 2);
        b.access(ClassId(1), PageId(3), t(0));
        b.install(ClassId(1), PageId(3), t(1));
        // Class 2 (no pool of its own) touches the page: plain hit, no move.
        assert_eq!(
            b.access(ClassId(2), PageId(3), t(2)),
            TieredAccess::Hit {
                tier: 0,
                pool: ClassId(1),
                moved: false,
                evicted: None,
                demoted: Demoted::default(),
            }
        );
        assert_eq!(b.locate(PageId(3)), Some((0, ClassId(1))));
    }

    #[test]
    fn grants_are_bounded_by_other_dedications() {
        let mut b = buf();
        let (g1, _) = b.set_dedicated(ClassId(1), 6);
        assert_eq!(g1, 6);
        let (g2, _) = b.set_dedicated(ClassId(2), 5);
        assert_eq!(g2, 2, "only 8 - 6 frames remain");
        assert_eq!(b.pool_at(0, NO_GOAL).capacity(), 0);
        b.check_invariants();
    }

    #[test]
    fn shrinking_no_goal_evicts_its_pages() {
        let mut b = buf();
        for i in 0..8u32 {
            b.access(NO_GOAL, PageId(i), t(i as u64));
            b.install(NO_GOAL, PageId(i), t(i as u64));
        }
        assert_eq!(b.total_resident(), 8);
        let (granted, evicted) = b.set_dedicated(ClassId(1), 3);
        assert_eq!(granted, 3);
        assert_eq!(evicted.len(), 3, "no-goal shrank 8 → 5");
        assert_eq!(b.total_resident(), 5);
        for p in &evicted {
            assert!(!b.resident(*p));
        }
        b.check_invariants();
    }

    #[test]
    fn shrinking_dedicated_returns_frames_to_no_goal() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 4);
        for i in 0..4u32 {
            b.access(ClassId(1), PageId(i), t(i as u64));
            b.install(ClassId(1), PageId(i), t(i as u64));
        }
        let (granted, evicted) = b.set_dedicated(ClassId(1), 1);
        assert_eq!(granted, 1);
        assert_eq!(evicted.len(), 3);
        assert_eq!(b.pool_at(0, NO_GOAL).capacity(), 7);
        b.check_invariants();
    }

    #[test]
    fn dedicated_eviction_drops_pages_from_node() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 2);
        for i in 0..3u32 {
            b.access(ClassId(1), PageId(i), t(i as u64));
            let out = b.install(ClassId(1), PageId(i), t(i as u64));
            if i == 2 {
                assert_eq!(out.evicted, Some(PageId(0)));
            }
        }
        assert!(!b.resident(PageId(0)), "victim left the node entirely");
        b.check_invariants();
    }

    #[test]
    fn miss_charged_to_target_pool() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 2);
        b.access(ClassId(1), PageId(9), t(0));
        assert_eq!(b.pool_stats(ClassId(1)).misses, 1);
        assert_eq!(b.pool_stats(NO_GOAL).misses, 0);
        b.access(ClassId(2), PageId(9), t(1));
        assert_eq!(b.pool_stats(NO_GOAL).misses, 1);
    }

    #[test]
    fn drop_page_removes_everywhere() {
        let mut b = buf();
        b.install(NO_GOAL, PageId(1), t(0));
        assert!(b.drop_page(PageId(1)));
        assert!(!b.drop_page(PageId(1)));
        assert!(!b.resident(PageId(1)));
        b.check_invariants();
    }
}
