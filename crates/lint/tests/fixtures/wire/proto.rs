// Wire-protocol fixture: the source of truth the other files must
// agree with.
pub const OP_PING: u8 = 0x01;
pub const OP_FLUSH: u8 = 0x02;
pub const OP_OK: u8 = 0x80;

/// Requests.
pub enum Request {
    Ping,
    Flush { hard: bool },
}

/// Borrowed requests: the exact mirror of `Request`.
pub enum RequestRef<'a> {
    Ping,
    Flush { hard: &'a bool },
}

/// Responses.
pub enum Response {
    Ok,
    Value(u64),
}

/// Error codes.
pub enum ErrorCode {
    BadFrame = 1,
    Io = 2,
}
