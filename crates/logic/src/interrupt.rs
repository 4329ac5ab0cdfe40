//! A scoped, per-thread stop hook for the decision procedures.
//!
//! While an [`interruptible`] scope is active, the simplex polls its `stop`
//! closure before every pivot, the ILP before every solve and every
//! branch-and-bound node, and the [`Solver`](crate::Solver) throughout its
//! DNF expansion and before every cube. Once it returns `true`,
//! LP solves end as [`LpResult::Interrupted`](crate::LpResult::Interrupted)
//! and ILP and SMT solves as "unknown", which every caller already treats
//! conservatively. Other threads are unaffected, and scopes
//! nest. `stop` should be sticky, so a caller can tell afterwards whether
//! any answer inside the scope was cut short.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

type Hook = Rc<dyn Fn() -> bool>;

thread_local! {
    static STOP: RefCell<Option<Hook>> = const { RefCell::new(None) };
    /// Whether `STOP` holds a hook: the cheap first test of every poll, so
    /// solves outside any scope pay one flag read.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `body` with `stop` as this thread's stop hook (see the
/// [module docs](self)).
///
/// # Example
/// ```
/// use logic::{interruptible, Formula, LinearExpr, Solver, Var};
///
/// let x = LinearExpr::var(Var::new("x"));
/// let bounded = Formula::and(vec![
///     Formula::ge(x.clone(), LinearExpr::constant(0)),
///     Formula::le(x, LinearExpr::constant(5)),
/// ]);
/// assert!(Solver::default().check(&bounded).is_sat());
/// // A tripped hook cuts the search short: no answer, never a wrong one.
/// let stopped = interruptible(|| true, || Solver::default().check(&bounded));
/// assert!(!stopped.is_sat() && !stopped.is_unsat());
/// ```
pub fn interruptible<R>(stop: impl Fn() -> bool + 'static, body: impl FnOnce() -> R) -> R {
    /// Reinstates the enclosing scope's hook, also when `body` unwinds.
    struct Restore(Option<Hook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            // `try_with`: a drop must not panic, even during thread teardown.
            let _ = ARMED.try_with(|armed| armed.set(previous.is_some()));
            let _ = STOP.try_with(|hook| *hook.borrow_mut() = previous);
        }
    }
    let previous = STOP.with(|hook| hook.replace(Some(Rc::new(stop))));
    ARMED.with(|armed| armed.set(true));
    let _restore = Restore(previous);
    body()
}

/// `true` once the innermost installed hook says stop; `false` outside
/// any [`interruptible`] scope.
pub(crate) fn stop_requested() -> bool {
    ARMED.with(Cell::get) && STOP.with(|hook| hook.borrow().as_ref().is_some_and(|stop| stop()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn no_hook_means_no_stop() {
        assert!(!stop_requested());
    }

    #[test]
    fn scopes_nest_and_restore() {
        interruptible(
            || true,
            || {
                assert!(stop_requested());
                interruptible(|| false, || assert!(!stop_requested()));
                assert!(stop_requested());
            },
        );
        assert!(!stop_requested());
    }

    #[test]
    fn the_hook_is_removed_when_the_body_panics() {
        let outcome = std::panic::catch_unwind(|| interruptible(|| true, || panic!("boom")));
        assert!(outcome.is_err());
        assert!(!stop_requested());
    }

    #[test]
    fn the_hook_is_polled_live() {
        let polls = Rc::new(Cell::new(0));
        let counter = Rc::clone(&polls);
        interruptible(
            move || {
                counter.set(counter.get() + 1);
                false
            },
            || {
                stop_requested();
                stop_requested();
            },
        );
        assert_eq!(polls.get(), 2);
    }
}
