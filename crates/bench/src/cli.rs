//! The one command line and run context of the `ablations`, `figures` and
//! `tables` binaries. [`RunContext::from_env`] checks every argument,
//! section ids included, before any section runs (the binaries exit 2 on
//! its error), and [`RunContext::world`] builds the study world on first use,
//! so one invocation builds it at most once.
//!
//! `--out <path>` is accepted only with exactly one section, and only when
//! that section is one of [`Sections::out_ids`], the sections that write a
//! JSON artifact; any other use exits 2 before any output and writes no
//! file. [`RunContext::write_out`] writes the artifact.

use std::cell::OnceCell;
use std::path::Path;
use std::process::ExitCode;

use pocketsearch::experiment::HitRateConfig;
use querylog::generator::GeneratorConfig;

use crate::json::{Fields, Json};
use crate::workloads::{full_scale_study_inputs, test_scale_study_inputs, StudyInputs};

/// The sections one report binary can run.
#[derive(Debug)]
pub struct Sections {
    /// The flag that names one section: `--study`, `--fig` or `--table`.
    pub flag: &'static str,
    /// What one id names, for error messages.
    pub noun: &'static str,
    /// Every id, in the order `all` (or no section flag) runs them.
    pub ids: &'static [&'static str],
    /// The ids that write a JSON artifact, the only ones `--out <path>`
    /// accepts (one at a time). Empty when no section writes one, and
    /// then `--out` is an unknown argument.
    pub out_ids: &'static [&'static str],
}

/// One parsed invocation of a report binary, plus its lazily built world.
#[derive(Debug)]
pub struct RunContext {
    /// The sections to run, in command-line order, `all` expanded.
    pub ids: Vec<String>,
    full_scale: bool,
    /// `--seed` (default 2011).
    pub seed: u64,
    out: Option<String>,
    world: OnceCell<StudyInputs>,
}

impl RunContext {
    /// Parses `args` (without the program name) against `sections`.
    fn parse(sections: &Sections, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut ids, mut full_scale, mut seed, mut out) = (Vec::new(), true, 2011, None);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                flag if flag == sections.flag => ids.push(value()?),
                "--out" if !sections.out_ids.is_empty() => out = Some(value()?),
                "--scale" => {
                    full_scale = match value()?.as_str() {
                        "full" => true,
                        "test" => false,
                        other => {
                            return Err(format!("unknown scale {other:?}, expected test|full"))
                        }
                    }
                }
                "--seed" => {
                    let text = value()?;
                    seed = text
                        .parse()
                        .map_err(|_| format!("--seed needs a number, got {text:?}"))?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(unknown) = ids
            .iter()
            .find(|id| *id != "all" && !sections.ids.contains(&id.as_str()))
        {
            return Err(format!(
                "unknown {} {unknown:?}, expected one of: {} all",
                sections.noun,
                sections.ids.join(" ")
            ));
        }
        if ids.is_empty() || ids.iter().any(|id| id == "all") {
            ids = sections.ids.iter().map(|id| (*id).to_owned()).collect();
        }
        if let Some(path) = &out {
            if ids.len() > 1 {
                return Err(format!(
                    "--out takes one {}, got {}: each would overwrite the same file",
                    sections.noun,
                    ids.len()
                ));
            }
            if !sections.out_ids.contains(&ids[0].as_str()) {
                return Err(format!(
                    "--out: {} {:?} writes no artifact, expected one of: {}",
                    sections.noun,
                    ids[0],
                    sections.out_ids.join(" ")
                ));
            }
            let dir = Path::new(path).parent().unwrap_or(Path::new(""));
            if !dir.as_os_str().is_empty() && !dir.is_dir() {
                return Err(format!(
                    "--out {path:?}: no such directory {:?}",
                    dir.display()
                ));
            }
        }
        Ok(RunContext {
            ids,
            full_scale,
            seed,
            out,
            world: OnceCell::new(),
        })
    }

    /// Parses the process arguments, printing any error to stderr and
    /// turning it into exit code 2.
    pub fn from_env(sections: &Sections) -> Result<Self, ExitCode> {
        Self::parse(sections, std::env::args().skip(1)).map_err(|message| {
            eprintln!("{message}");
            ExitCode::from(2)
        })
    }

    /// Writes section `bench`'s artifact to the `--out` path, if one was
    /// given, and names it: a JSON object of the `bench`/`scale`/`seed`
    /// header followed by `fields`. A failed write names the path on
    /// stderr and exits the process with code 1.
    pub fn write_out(&self, bench: &str, fields: Fields) {
        if let Some(path) = &self.out {
            let mut artifact = vec![
                ("bench", bench.into()),
                ("scale", self.scale().into()),
                ("seed", self.seed.into()),
            ];
            artifact.extend(fields);
            if let Err(err) = std::fs::write(path, Json::Object(artifact).render()) {
                eprintln!("cannot write --out {path:?}: {err}");
                std::process::exit(1);
            }
            println!("wrote {path}\n");
        }
    }

    /// Prints the report header naming the scale and seed.
    pub fn print_header(&self, title: &str) {
        println!(
            "# Pocket Cloudlets {title} ({} scale, seed {})\n",
            self.scale(),
            self.seed
        );
    }

    /// `"full"` or `"test"`.
    pub fn scale(&self) -> &'static str {
        self.by_scale("full", "test")
    }

    /// `full` at full scale, `test` at test scale.
    pub fn by_scale<T>(&self, full: T, test: T) -> T {
        if self.full_scale {
            full
        } else {
            test
        }
    }

    /// The log generator of this run's scale.
    pub fn generator(&self) -> GeneratorConfig {
        self.by_scale(GeneratorConfig::full_scale(), GeneratorConfig::test_scale())
    }

    /// The hit-rate study configuration of this run's scale.
    pub fn hit_rate_config(&self) -> HitRateConfig {
        self.by_scale(HitRateConfig::full_scale(), HitRateConfig::test_scale())
    }

    /// This run's study world, built on first use.
    pub fn world(&self) -> &StudyInputs {
        self.world.get_or_init(|| {
            if self.full_scale {
                full_scale_study_inputs(self.seed)
            } else {
                test_scale_study_inputs(self.seed)
            }
        })
    }
}
