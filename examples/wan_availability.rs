//! Availability vs demand scale on B4 — a miniature of Figure 13.
//!
//! Compares TeaVaR, FFC-1, Flexile and PreTE across demand scales and
//! prints the availability each sustains, demonstrating the paper's
//! headline: PreTE supports roughly 2× the demand of static-probability
//! schemes at the same availability level.
//!
//! Run with: `cargo run --release --example wan_availability`

use prete_bench::availability::{benchmark_schemes, Env, BASE_LOAD};
use prete_core::eval::EvalConfig;
use prete_core::gain::max_supported_scale;
use prete_topology::topologies;

fn main() {
    let env = Env::new(topologies::b4());
    println!(
        "B4: {} fibers, {} IP links, {} flows at {:.0} % base load\n",
        env.net.num_fibers(),
        env.net.num_links(),
        env.flows.len(),
        100.0 * BASE_LOAD
    );
    let cfg = EvalConfig {
        top_k_degraded: 5,
        ..Default::default()
    };
    let scales = [1.0, 2.0, 3.0, 4.0, 6.0];
    let schemes = benchmark_schemes(&env);

    println!("availability by demand scale:");
    print!("{:<12}", "scheme");
    for s in scales {
        print!("  scale {s:<4}");
    }
    println!();
    for scheme in &schemes {
        print!("{:<12}", scheme.name());
        for s in scales {
            print!("  {:>9.5}", env.availability(scheme.as_ref(), s, cfg));
        }
        println!();
    }

    // Demand each scheme sustains at 99.9 % availability (Table 4 cut).
    println!("\nmax demand scale at 99.9 % availability:");
    for scheme in &schemes {
        let m = max_supported_scale(
            |scale| env.availability(scheme.as_ref(), scale, cfg),
            0.999,
            0.25,
            8.0,
            5,
        );
        match m {
            Some(v) => println!("  {:<12} {v:.2}x", scheme.name()),
            None => println!("  {:<12} NA", scheme.name()),
        }
    }
}
