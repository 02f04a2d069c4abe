// Dispatch matches every variant the mirror has.
pub fn apply(req: RequestRef) {
    match req {
        RequestRef::Ping => {}
    }
}
