// The client encodes from borrowed requests only; `RequestRef::Flush`
// naming a variant the mirror lacks would not compile, so it sends the
// owned form for that one. Both spellings satisfy the client check.
pub fn send_all() {
    send(RequestRef::Ping);
    send(Request::Flush { hard: true });
}

pub fn handle(r: Response) {
    match r {
        Response::Ok => {}
    }
}
