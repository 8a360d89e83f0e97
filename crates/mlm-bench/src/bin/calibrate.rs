//! Characterise the host machine and re-fit the calibration against the
//! paper's GNU-flat anchor row. Run with --release for meaningful rates.

use mlm_bench::calibrate::{fit_to_anchor, measure_host};
use mlm_bench::report::{gbps, render_table};
use mlm_core::Calibration;

fn main() {
    println!("Host characterisation (native)...");
    let m = measure_host(
        4_000_000,
        std::thread::available_parallelism().map_or(4, |p| p.get()),
    );
    let headers = ["Quantity", "Value"];
    let body = vec![
        vec![
            "host sort_unstable rate, random keys".into(),
            gbps(m.sort_rate_random),
        ],
        vec![
            "host sort_unstable rate, reverse keys (O(n) run reversal)".into(),
            gbps(m.sort_rate_reverse),
        ],
        vec![
            "host reverse / random ratio (not the model's; see incache_reverse)".into(),
            format!("{:.2}", m.reverse_ratio),
        ],
        vec!["STREAM Triad".into(), gbps(m.triad_bandwidth)],
    ];
    println!("{}", render_table(&headers, &body));

    println!("Fitting compute-rate scale to the paper's GNU-flat 2B random anchor (11.92 s)...");
    match fit_to_anchor(&Calibration::default()) {
        Ok((fitted, residual)) => {
            println!("  fitted s_sort_random  = {}", gbps(fitted.s_sort_random));
            println!("  fitted s_sort_reverse = {}", gbps(fitted.s_sort_reverse));
            println!("  fitted s_multiway     = {}", gbps(fitted.s_multiway));
            println!("  anchor residual       = {residual:+.3} s");
            let d = Calibration::default();
            println!(
                "  shipped default drift  = {:.3}x",
                fitted.s_sort_random / d.s_sort_random
            );
        }
        Err(e) => eprintln!("fit failed: {e}"),
    }
}
