//! Prometheus text exposition of a [`RegistrySnapshot`].
//!
//! The writer is hand-rolled (this crate has no dependencies) and emits
//! metrics in name order, so output is stable across runs.

use crate::RegistrySnapshot;

/// Quantiles reported for every histogram, everywhere — by this exporter
/// and by the facade's JSON document:
/// `(quantile, Prometheus label, JSON key)`.
pub const QUANTILES: [(f64, &str, &str); 3] = [
    (0.5, "0.5", "p50"),
    (0.95, "0.95", "p95"),
    (0.99, "0.99", "p99"),
];

/// Map a dot-separated metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Render the snapshot in the Prometheus text exposition format.
/// Histograms are exposed as summaries with `quantile` labels.
pub(crate) fn prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, hist) in &snap.histograms {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, label, _) in QUANTILES {
            out.push_str(&format!(
                "{name}{{quantile=\"{label}\"}} {}\n",
                hist.quantile(q)
            ));
        }
        out.push_str(&format!("{name}_sum {}\n", hist.sum));
        out.push_str(&format!("{name}_count {}\n", hist.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn prometheus_output_is_sanitised_and_typed() {
        let reg = Registry::new();
        reg.counter("serve.requests.partition").add(7);
        reg.gauge("serve.active_connections").set(2);
        let h = reg.histogram("serve.request.partition_us");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE serve_requests_partition counter"));
        assert!(text.contains("serve_requests_partition 7"));
        assert!(text.contains("# TYPE serve_active_connections gauge"));
        assert!(text.contains("serve_active_connections 2"));
        assert!(text.contains("# TYPE serve_request_partition_us summary"));
        assert!(text.contains("serve_request_partition_us{quantile=\"0.5\"}"));
        assert!(text.contains("serve_request_partition_us_count 3"));
        for line in text.lines() {
            let metric = line.strip_prefix("# TYPE ").unwrap_or(line);
            let name = metric.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unsanitised metric name: {line}");
        }
        assert_eq!(Registry::disabled().render_prometheus(), "");
    }
}
