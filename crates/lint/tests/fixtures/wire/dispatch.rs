//~ ERROR RequestRef::Ping
// Seeded drift: dispatch handles Flush but forgot Ping.
pub fn apply(req: RequestRef) {
    match req {
        RequestRef::Flush { hard } => flush(hard),
        _ => {}
    }
}
