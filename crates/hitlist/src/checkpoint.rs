//! Crash-safe checkpoint files.
//!
//! The one writer and reader behind [`ServiceState`](crate::ServiceState)
//! and the vantage fleet's `FleetState`: the bytes go to a sibling
//! temporary file that is flushed to disk before it is renamed over
//! `path`, and the directory is flushed after, so a crash or power loss
//! leaves either the previous checkpoint or the new one at `path` (and
//! perhaps a stray `.tmp`) — never a truncated or empty file.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` atomically and durably.
pub fn save_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(contents.as_bytes())?;
    // Without this the rename can reach the disk before the data does.
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    // The rename itself lives in the directory; only Unix lets a
    // directory be opened to flush it.
    #[cfg(unix)]
    {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// Reads back a file written by [`save_atomic`].
pub fn load(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("checkpoint read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HitlistService, ServiceConfig, ServiceState};
    use sixdust_net::{Day, FaultConfig, Internet, Scale};

    #[test]
    fn save_atomic_then_load_round_trips_and_leaves_no_temp() {
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let mut svc = HitlistService::new(ServiceConfig::default());
        svc.run(&net, Day(0), Day(6));
        let state = ServiceState::capture(&svc);
        let dir = std::env::temp_dir().join("sixdust_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        state.save_atomic(&path).expect("atomic save");
        assert!(!dir.join("checkpoint.json.tmp").exists(), "temp renamed away");
        assert_eq!(load(&path).as_deref(), Ok(state.to_json().as_str()));
        let back = ServiceState::load(&path).expect("load validates");
        assert_eq!(back, state);
        // Overwriting an existing checkpoint replaces it whole.
        save_atomic(&path, "{}").expect("overwrite");
        assert_eq!(load(&path).as_deref(), Ok("{}"));
        assert!(!dir.join("checkpoint.json.tmp").exists());
        assert!(ServiceState::load(&path).is_err(), "an empty object is not a checkpoint");
        assert!(load(&dir.join("absent.json")).unwrap_err().contains("absent.json"));
        fs::remove_dir_all(&dir).ok();
    }
}
