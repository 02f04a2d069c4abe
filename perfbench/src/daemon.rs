//! `sbf serve` child processes and what the benchmark reads from them.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sbf_server::{ClientError, SbfClient};

/// A running `sbf serve` process, killed and reaped on drop.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    // Held open so the daemon's later stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it printed on its `sbfd listening on` line.
    pub addr: String,
    sbf: PathBuf,
    args: Vec<String>,
}

impl Daemon {
    /// Starts `sbf serve --addr 127.0.0.1:0 <args>` and waits for its
    /// listening line.
    pub fn spawn(sbf: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(sbf)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "sbf serve {args:?} exited before listening"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("sbfd listening on ") {
                return Ok(Daemon {
                    addr: addr.to_string(),
                    child,
                    _stdout: stdout,
                    sbf: sbf.to_path_buf(),
                    args: args.to_vec(),
                });
            }
        }
    }

    /// Starts this daemon again with the same arguments (after a SIGKILL
    /// if it is still running).
    pub fn respawn(&mut self) -> io::Result<()> {
        self.kill();
        *self = Daemon::spawn(&self.sbf, &self.args)?;
        Ok(())
    }

    /// A client with generous timeouts.
    pub fn connect(&self) -> Result<SbfClient, ClientError> {
        SbfClient::builder(self.addr.as_str())
            .io_timeout(Some(Duration::from_secs(60)))
            .connect()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line"))
    }

    /// User plus system CPU time the process has used, in seconds.
    pub fn cpu_s(&self) -> io::Result<f64> {
        // `/proc/<pid>/stat` counts in USER_HZ ticks, 100 per second on
        // Linux.
        const USER_HZ: f64 = 100.0;
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name start at `state`;
        // `utime` and `stime` are the 12th and 13th of them.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
        let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (tick(11), tick(12)) {
            (Some(user), Some(system)) => Ok((user + system) / USER_HZ),
            _ => Err(io::Error::other("unreadable /proc stat line")),
        }
    }

    /// SIGKILLs the process and waits for it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Polls STATS until `metric` reaches `at_least` or `timeout` passes.
pub fn wait_for_stat(
    c: &mut SbfClient,
    metric: &str,
    at_least: f64,
    timeout: Duration,
) -> Result<(), ClientError> {
    let t0 = Instant::now();
    loop {
        if parse_stats(&c.stats()?).get(metric).copied().unwrap_or(0.0) >= at_least {
            return Ok(());
        }
        if t0.elapsed() > timeout {
            return Err(ClientError::Unexpected(
                "timed out waiting for a STATS value",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Parses Prometheus exposition text into `name{labels}` → value.
fn parse_stats(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// How much each STATS sample grew, summed over pairs of scrapes.
#[derive(Debug, Default)]
pub struct StatsDelta {
    diff: BTreeMap<String, f64>,
}

impl StatsDelta {
    /// Adds `after - before` for two scrapes of one daemon.
    pub fn add(&mut self, before: &str, after: &str) {
        let before = parse_stats(before);
        for (name, v) in parse_stats(after) {
            *self.diff.entry(name.clone()).or_default() +=
                v - before.get(&name).copied().unwrap_or(0.0);
        }
    }

    /// How much the sample `name` grew.
    pub fn get(&self, name: &str) -> f64 {
        self.diff.get(name).copied().unwrap_or(0.0)
    }

    /// Median of the observations a log2-bucket histogram gained, linearly
    /// interpolated inside its bucket; `None` when it gained none.
    pub fn histogram_p50(&self, base: &str) -> Option<f64> {
        let prefix = format!("{base}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .diff
            .keys()
            .filter_map(|k| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, self.get(k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let half = total / 2.0;
        let (mut lo_bound, mut lo_cum) = (0.0, 0.0);
        for (bound, cum) in buckets {
            if cum >= half {
                if bound.is_infinite() {
                    return Some(lo_bound);
                }
                let share = if cum > lo_cum {
                    (half - lo_cum) / (cum - lo_cum)
                } else {
                    1.0
                };
                return Some(lo_bound + share * (bound - lo_bound));
            }
            (lo_bound, lo_cum) = (bound, cum);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_interpolates_inside_the_bucket() {
        let before = "h_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 0\nh_bucket{le=\"4\"} 0\nh_bucket{le=\"+Inf\"} 0\n";
        let after = "# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"4\"} 4\nh_bucket{le=\"+Inf\"} 4\nc_total{op=\"x\"} 5\n";
        let mut d = StatsDelta::default();
        d.add(before, after);
        assert_eq!(d.histogram_p50("h"), Some(2.0));
        d.add(before, after);
        assert_eq!(d.get("c_total{op=\"x\"}"), 10.0);
    }
}
