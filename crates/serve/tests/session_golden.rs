//! Golden session replies: seeded churn sessions replayed through one
//! in-process service, every `Upload` and `Edit` reply pinned byte for
//! byte.
//!
//! The socket harness excludes session verbs from its byte-diff (session
//! ids follow cross-connection arrival order), so this file is what pins
//! the resident-session path: the repaired profiles, the method tags and
//! the wall-clock-free repair telemetry of every edit. The small sessions
//! are stored inline; the `n = 512` session stores one [`ContentHasher`]
//! digest per reply line.
//!
//! To regenerate after an *intentional* change to session answers:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p netuncert-serve --test session_golden
//! git diff crates/serve/tests/golden/   # review every byte you are blessing
//! ```

use std::path::PathBuf;

use netuncert_core::cache::ContentHasher;
use netuncert_serve::protocol::{
    EditRequest, Request, RequestBody, Response, ResponseBody, UploadReply, UploadRequest,
};
use netuncert_serve::state::{ServeConfig, ServeState};
use netuncert_serve::workload::churn_session;

/// One pinned session: `(seed, users, links, edits, inline)`.
const SESSIONS: [(u64, usize, usize, usize, bool); 3] = [
    (5, 8, 3, 200, true),
    (77, 64, 4, 200, true),
    (1337, 512, 16, 50, false),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/session_replies.txt")
}

/// Sends one request as a JSON line and returns the reply line.
fn send(state: &ServeState, id: u64, body: RequestBody) -> String {
    let line = serde_json::to_string(&Request { id, body }).expect("requests serialise");
    state.handle_line(&line)
}

fn digest(line: &str) -> String {
    let mut h = ContentHasher::new();
    h.bytes(line.as_bytes());
    format!("{:016x}", h.finish())
}

/// Replays every session through one fresh service, one section per
/// session, one line per `Upload`/`Edit` reply.
fn replay() -> String {
    let state = ServeState::new(&ServeConfig::default());
    let mut out = String::new();
    let mut id = 0;
    for (seed, users, links, edits, inline) in SESSIONS {
        out.push_str(&format!(
            "# seed={seed} users={users} links={links} edits={edits}\n"
        ));
        let (instance, wire_edits) = churn_session(seed, users, links, edits);
        id += 1;
        let mut replies = vec![send(
            &state,
            id,
            RequestBody::Upload(UploadRequest { instance }),
        )];
        let upload: Response = serde_json::from_str(&replies[0]).expect("reply parses");
        let ResponseBody::Upload(UploadReply { session, .. }) = upload.body else {
            panic!("upload did not pin: {}", replies[0]);
        };
        for edit in wire_edits {
            id += 1;
            replies.push(send(
                &state,
                id,
                RequestBody::Edit(EditRequest { session, edit }),
            ));
        }
        for reply in replies {
            if inline {
                out.push_str(&reply);
            } else {
                out.push_str(&digest(&reply));
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn session_replies_match_their_golden_file() {
    let replies = replay();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &replies).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDENS=1 cargo test -p netuncert-serve \
             --test session_golden and review the diff",
            path.display()
        )
    });
    for (line, (got, want)) in replies.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "session reply line {} drifted", line + 1);
    }
    assert_eq!(
        replies.lines().count(),
        golden.lines().count(),
        "session reply count drifted"
    );
}
