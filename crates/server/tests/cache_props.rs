//! Property test: for generated instances, the verdict the daemon serves
//! from its cache equals a fresh in-process `Portfolio::race_on_pool` — serving
//! memoized verdicts never changes an answer.

use gen::{GenConfig, ProblemStream};
use portfolio::{Cancel, Portfolio};
use proptest::prelude::*;
use runner::WarmPool;
use server::{Client, Endpoint, ResponseStatus, Server, ServerConfig};
use std::sync::OnceLock;
use sygus::parser::problem_to_sygus;

/// One daemon shared by every proptest case (spinning a warm pool per
/// case would dominate the test's runtime). Leaked at process exit.
fn shared_endpoint() -> &'static Endpoint {
    static ENDPOINT: OnceLock<Endpoint> = OnceLock::new();
    ENDPOINT.get_or_init(|| {
        let server = Server::bind(ServerConfig::default()).expect("binding a loopback listener");
        let endpoint = server.endpoint();
        std::thread::spawn(move || server.run());
        endpoint
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_verdicts_equal_a_fresh_race(seed in 0u64..10_000) {
        let portfolio = Portfolio::new();
        let pool = WarmPool::new(2);
        let mut client = Client::connect(shared_endpoint()).expect("connect");
        for instance in ProblemStream::new(GenConfig::new(seed)).take(2) {
            let fresh = portfolio.race_on_pool(&instance.problem, &pool, &Cancel::new());
            let text = problem_to_sygus(&instance.problem, "f");

            let first = client.solve(&instance.name(), &text).expect("solve");
            prop_assert_eq!(first.status, ResponseStatus::Ok);
            prop_assert_eq!(
                first.verdict.as_deref(),
                Some(fresh.verdict.name()),
                "daemon vs fresh race on {}",
                instance.name()
            );

            let second = client.solve(&instance.name(), &text).expect("re-solve");
            prop_assert_eq!(second.verdict.as_deref(), Some(fresh.verdict.name()));
            if fresh.verdict.is_definitive() {
                // Definitive verdicts are memoized; the replay must hit.
                prop_assert!(second.cached, "{:?}", second);
            } else {
                // Unknowns are budget-dependent and never cached.
                prop_assert!(!second.cached, "{:?}", second);
            }
        }
    }
}
