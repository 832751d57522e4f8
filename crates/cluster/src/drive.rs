//! Standalone driver for a [`DataPlane`] outside a full [`dmm_sim::Engine`]
//! deployment — the one event loop shared by unit tests, property tests and
//! benches that want to run the access protocol to quiescence without
//! wiring up a whole control plane.

use dmm_sim::{Engine, Handler, Scheduler, SimTime};

use crate::op::OpCompletion;
use crate::plane::{ClusterEvent, DataPlane};

/// Hard ceiling on delivered events per drive; hitting it means the access
/// protocol is not terminating.
const EVENT_STORM_LIMIT: u64 = 200_000;

struct Driver<'a> {
    plane: &'a mut DataPlane,
    done: Vec<OpCompletion>,
}

impl Handler<ClusterEvent> for Driver<'_> {
    fn handle(&mut self, now: SimTime, event: ClusterEvent, sched: &mut Scheduler<ClusterEvent>) {
        let out = self.plane.handle(now, event);
        if let Some((t, e)) = out.schedule {
            sched.at(t, e); // asserts t >= now: events must not go backwards
        }
        if let Some(c) = out.completed {
            self.done.push(c);
        }
    }
}

/// Delivers `start` and every follow-up the plane schedules, in
/// (time, scheduling-order) order, until no events remain; returns the
/// operation completions observed. Panics if the protocol fails to
/// terminate within a generous event budget.
pub fn drive_to_quiescence(
    plane: &mut DataPlane,
    start: impl IntoIterator<Item = (SimTime, ClusterEvent)>,
) -> Vec<OpCompletion> {
    let mut eng = Engine::new();
    for (t, e) in start {
        eng.scheduler().at(t, e);
    }
    let mut driver = Driver {
        plane,
        done: Vec::new(),
    };
    eng.run_events(EVENT_STORM_LIMIT, &mut driver);
    assert_eq!(
        eng.scheduler().pending(),
        0,
        "event storm: protocol does not terminate"
    );
    driver.done
}
