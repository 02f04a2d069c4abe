// Mirror-drift fixture: the borrowed form the server decodes into has
// lost a variant, so `Flush` frames could never be parsed or served.
pub const OP_PING: u8 = 0x01;
pub const OP_FLUSH: u8 = 0x02;

/// Requests.
pub enum Request {
    Ping,
    Flush { hard: bool },
}

/// Borrowed requests (seeded drift: `Flush` is dropped).
pub enum RequestRef { //~ ERROR `RequestRef` has no `Flush` variant
    Ping,
}

/// Responses.
pub enum Response {
    Ok,
}

/// Error codes.
pub enum ErrorCode {
    BadFrame = 1,
}
