//! Stratified equation solving (§7, "Solving GFA Equations via
//! Stratification").
//!
//! The variable-dependence graph of an equation system is condensed into its
//! strongly connected components (Tarjan's algorithm); the components are
//! then solved bottom-up in a topological order, substituting already-solved
//! variables by their values. Each stratum is solved with Newton's method,
//! so the overall result is still exact — but the matrices handled by each
//! Newton run are much smaller, which is the speed-up measured in Fig. 4.

use crate::equations::{EquationSystem, Solution};
use crate::newton;
use semilinear::SemiLinearSet;

/// Computes the strongly connected components of a directed graph given by
/// `edges` over nodes `0..num_nodes`, returned in **reverse topological
/// order** (i.e. a component appears after every component it depends on —
/// callers can solve them left to right).
///
/// Edges are interpreted as "`from` depends on `to`".
pub fn strongly_connected_components(
    num_nodes: usize,
    edges: &[(usize, usize)],
) -> Vec<Vec<usize>> {
    // Tarjan's algorithm, iterative to avoid deep recursion.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for &(from, to) in edges {
        succ[from].push(to);
    }

    #[derive(Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut state = vec![
        NodeState {
            index: None,
            lowlink: 0,
            on_stack: false,
        };
        num_nodes
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut components: Vec<Vec<usize>> = Vec::new();

    // explicit DFS stack: (node, next child position)
    for root in 0..num_nodes {
        if state[root].index.is_some() {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child_pos)) = dfs.last_mut() {
            if *child_pos == 0 {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if *child_pos < succ[v].len() {
                let w = succ[v][*child_pos];
                *child_pos += 1;
                match state[w].index {
                    None => dfs.push((w, 0)),
                    Some(w_index) => {
                        if state[w].on_stack {
                            state[v].lowlink = state[v].lowlink.min(w_index);
                        }
                    }
                }
            } else {
                // finished v
                if state[v].lowlink == state[v].index.expect("visited") {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack contains the component");
                        state[w].on_stack = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    let v_low = state[v].lowlink;
                    state[parent].lowlink = state[parent].lowlink.min(v_low);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order of the condensation
    // when edges are "depends on": a component is emitted only after all
    // components it reaches have been emitted.
    components
}

/// Solves the equation system stratum by stratum (SCC by SCC), using
/// Newton's method within each stratum (`dim` and `prune` as for
/// [`newton::solve`]). Returns the exact least solution, like
/// [`newton::solve`], but typically much faster on grammars with many
/// nonterminals.
///
/// The [`logic`] stop hook is polled before every Newton iteration of
/// every stratum; once it fires the result is an under-approximation
/// marked `exact: false`.
pub fn solve_stratified(system: &EquationSystem, dim: usize, prune: bool) -> Solution {
    let n = system.num_vars();
    let components = strongly_connected_components(n, &system.dependencies());
    let mut values: Vec<Option<SemiLinearSet>> = vec![None; n];
    let mut iterations = 0;
    let mut exact = true;

    for component in &components {
        let (subsystem, mapping) = system.restrict(component, &values);
        let sub_solution = newton::solve(&subsystem, dim, prune);
        iterations += sub_solution.iterations;
        if !sub_solution.exact {
            exact = false;
            break;
        }
        for (local, &global) in mapping.iter().enumerate() {
            values[global] = Some(sub_solution.values[local].clone());
        }
    }

    Solution {
        values: values.into_iter().map(Option::unwrap_or_default).collect(),
        iterations,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations::Monomial;
    use semilinear::IntVec;

    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }

    #[test]
    fn scc_of_a_chain() {
        // 0 depends on 1 depends on 2
        let sccs = strongly_connected_components(3, &[(0, 1), (1, 2)]);
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn scc_of_a_cycle() {
        let sccs = strongly_connected_components(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs[0], vec![2]);
        assert_eq!(sccs[1], vec![0, 1]);
    }

    #[test]
    fn scc_topological_order_respects_dependencies() {
        // two independent cycles {0,1} and {2,3}, with 0 depending on 2
        let sccs = strongly_connected_components(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]);
        assert_eq!(sccs.len(), 2);
        let pos_01 = sccs.iter().position(|c| c.contains(&0)).unwrap();
        let pos_23 = sccs.iter().position(|c| c.contains(&2)).unwrap();
        assert!(
            pos_23 < pos_01,
            "the component {{2,3}} must be solved before {{0,1}}"
        );
    }

    #[test]
    fn disconnected_nodes_form_their_own_components() {
        let sccs = strongly_connected_components(3, &[]);
        assert_eq!(sccs.len(), 3);
    }

    #[test]
    fn stratified_matches_monolithic_newton() {
        // The G1 system of Example 5.7 (4 variables, one proper SCC).
        let mut sys = EquationSystem::new(4);
        let (start, s1, s2, s3) = (0, 1, 2, 3);
        sys.add_monomial(start, Monomial::new(SemiLinearSet::one(2), vec![s1, start]));
        sys.add_monomial(start, Monomial::constant(single(&[0, 0])));
        sys.add_monomial(s1, Monomial::new(single(&[1, 2]), vec![s2]));
        sys.add_monomial(s2, Monomial::new(single(&[1, 2]), vec![s3]));
        sys.add_monomial(s3, Monomial::constant(single(&[1, 2])));

        let direct = newton::solve(&sys, 2, true);
        let stratified = solve_stratified(&sys, 2, true);
        for (a, b) in direct.values.iter().zip(&stratified.values) {
            assert!(a.sample_equivalent(b, 4), "{a} vs {b}");
        }
    }

    #[test]
    fn stratified_solves_mutually_recursive_strata() {
        // X0 = X1 ⊗ {1} ⊕ {0}, X1 = X0 ⊗ {1}   (one SCC of size 2)
        // X2 = X0 ⊗ {10}                        (separate downstream stratum)
        let mut sys = EquationSystem::new(3);
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![1]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        sys.add_monomial(1, Monomial::new(single(&[1]), vec![0]));
        sys.add_monomial(2, Monomial::new(single(&[10]), vec![0]));
        let sol = solve_stratified(&sys, 1, true);
        // X0 = even numbers, X1 = odd numbers, X2 = 10 + even
        assert!(sol.values[0].contains(&IntVec::from(vec![0])));
        assert!(sol.values[0].contains(&IntVec::from(vec![4])));
        assert!(!sol.values[0].contains(&IntVec::from(vec![3])));
        assert!(sol.values[1].contains(&IntVec::from(vec![1])));
        assert!(sol.values[1].contains(&IntVec::from(vec![5])));
        assert!(!sol.values[1].contains(&IntVec::from(vec![2])));
        assert!(sol.values[2].contains(&IntVec::from(vec![10])));
        assert!(sol.values[2].contains(&IntVec::from(vec![12])));
        assert!(!sol.values[2].contains(&IntVec::from(vec![11])));
    }
}
