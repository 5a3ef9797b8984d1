//! Several processors initiate PIF waves simultaneously — the paper's
//! general setting ("any processor can be an initiator … several PIF
//! protocols may be running simultaneously"). Each initiator owns an
//! independent register set (one `WaveService` lane); the shard
//! interleaves its lanes one seeded step at a time, and each wave
//! satisfies the PIF specification on its own.
//!
//! ```sh
//! cargo run -p pif-suite --example concurrent_initiators
//! ```

use pif_graph::{ProcId, Topology};
use pif_serve::{AggregateKind, Request, RequestOutcome, ServeConfig, ServeDaemon, WaveService};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three initiators sharing one shard, each running its own census
    // wave concurrently under a random central daemon.
    let initiators = vec![ProcId(0), ProcId(3), ProcId(7)];
    let config = ServeConfig::new(Topology::Petersen)
        .initiators(initiators.clone())
        .shards(1)
        .daemon(ServeDaemon::CentralRandom)
        .seed(2026);
    let mut service = WaveService::new(config)?;
    let n = service.graph().len();
    println!("network: {} ({n} processors)", service.graph());

    for &r in &initiators {
        service.submit(Request::new(r, format!("census by {r}"), AggregateKind::Ack))?;
    }
    service.run()?;

    let records: Vec<_> = service.ledger().records().collect();
    assert_eq!(records.len(), initiators.len());
    for record in records {
        let RequestOutcome::Completed { pif1, pif2, feedback } = record.outcome else {
            return Err(format!("wave of {} ended {:?}", record.initiator, record.outcome).into());
        };
        println!(
            "initiator {}: PIF1 = {pif1}, PIF2 = {pif2}, tree height {}, census = {feedback:?}",
            record.initiator, record.height
        );
        assert!(pif1 && pif2);
        assert_eq!(feedback, Some(10));
    }
    println!("\nall concurrent waves delivered and were fully acknowledged");
    Ok(())
}
