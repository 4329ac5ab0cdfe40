//! A scoped, per-thread stop hook: the one stop signal below the engine
//! boundary.
//!
//! A deadline reaches an engine as a `Cancel` token. Exactly two functions
//! turn that token into a hook — `Nay::run_cancellable` and
//! `NopeSolver::check_cancellable` — by running their body inside an
//! [`interruptible`] scope (the benchmark suite does the same around each
//! of its jobs). Everything below them polls [`stop_requested`] and takes no
//! token: the GFA fixpoints (SolveMutual and SolveBool rounds, each
//! `⟦<⟧♯`/`⟦=⟧♯` query, Newton iterations, matrix-star cells, strata), the
//! enumerator's size loop, nope's unrolling and fixpoint rounds, nayHorn's
//! Kleene loop, and the decision procedures here: the simplex before every
//! pivot, the ILP before every solve and branch-and-bound node, and the
//! [`Solver`](crate::Solver) throughout its DNF expansion and before every
//! cube. Once the hook returns `true`, LP solves end as
//! [`LpResult::Interrupted`](crate::LpResult::Interrupted) and ILP and SMT
//! solves as "unknown", which every caller already treats conservatively.
//!
//! Rules that keep a stopped answer sound:
//!
//! * `stop` must be sticky (a tripped token stays tripped), so a caller
//!   inside a scope can read [`stop_requested`] after a call returns to
//!   tell whether anything inside it was cut short. A fixpoint cut short
//!   under-approximates, so a check reads it before its final query, and a
//!   stopped check answers "unknown" (or "cancelled"), never a definitive
//!   verdict.
//! * Scopes nest, and an inner scope replaces the outer hook for its
//!   duration. No code installs a scope around a token that can never
//!   trip: it would mask a live deadline outside it. Token-free entry
//!   points install nothing and inherit the caller's scope.
//! * Other threads are unaffected, and the hook is removed when its scope
//!   ends, also by unwinding, so it never outlives the job that set it.

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
/// any [`interruptible`] scope, where a poll costs one flag read.
pub fn stop_requested() -> bool {
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
