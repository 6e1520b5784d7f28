#include "archive/fits.h"

#include "core/bytes.h"
#include "core/crc32.h"
#include "core/strings.h"

namespace hedc::archive {

namespace {
constexpr uint32_t kFitsMagic = 0x48465453;  // "HFTS"
constexpr uint32_t kFitsVersion = 1;
}  // namespace

const FitsCard* FitsHdu::FindCard(const std::string& key) const {
  for (const FitsCard& card : cards) {
    if (EqualsIgnoreCase(card.key, key)) return &card;
  }
  return nullptr;
}

void FitsHdu::SetCard(const std::string& key, const std::string& value,
                      const std::string& comment) {
  for (FitsCard& card : cards) {
    if (EqualsIgnoreCase(card.key, key)) {
      card.value = value;
      card.comment = comment;
      return;
    }
  }
  cards.push_back(FitsCard{key, value, comment});
}

int64_t FitsHdu::GetIntCard(const std::string& key, int64_t fallback) const {
  const FitsCard* card = FindCard(key);
  if (card == nullptr) return fallback;
  int64_t v;
  return ParseInt64(card->value, &v) ? v : fallback;
}

double FitsHdu::GetRealCard(const std::string& key, double fallback) const {
  const FitsCard* card = FindCard(key);
  if (card == nullptr) return fallback;
  double v;
  return ParseDouble(card->value, &v) ? v : fallback;
}

FitsHdu& FitsFile::primary() {
  if (hdus_.empty()) {
    hdus_.push_back(FitsHdu{"PRIMARY", {}, {}});
  }
  return hdus_.front();
}

FitsHdu& FitsFile::AddHdu(const std::string& name) {
  primary();  // ensure the primary exists first
  hdus_.push_back(FitsHdu{name, {}, {}});
  return hdus_.back();
}

const FitsHdu* FitsFile::FindHdu(const std::string& name) const {
  for (const FitsHdu& hdu : hdus_) {
    if (EqualsIgnoreCase(hdu.name, name)) return &hdu;
  }
  return nullptr;
}

size_t FitsFile::DataSize() const {
  size_t total = 0;
  for (const FitsHdu& hdu : hdus_) total += hdu.data.size();
  return total;
}

std::vector<uint8_t> FitsFile::Serialize() const {
  ByteBuffer out;
  out.PutU32(kFitsMagic);
  out.PutU32(kFitsVersion);
  out.PutVarint(hdus_.size());
  for (const FitsHdu& hdu : hdus_) {
    ByteBuffer body;
    body.PutString(hdu.name);
    body.PutVarint(hdu.cards.size());
    for (const FitsCard& card : hdu.cards) {
      body.PutString(card.key);
      body.PutString(card.value);
      body.PutString(card.comment);
    }
    body.PutVarint(hdu.data.size());
    body.PutBytes(hdu.data.data(), hdu.data.size());
    out.PutU32(Crc32(body.data()));
    out.PutVarint(body.size());
    out.PutBytes(body.data().data(), body.size());
  }
  return std::move(out).TakeData();
}

Result<FitsFile> FitsFile::Parse(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0, version = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kFitsMagic) {
    return Status::Corruption("not a FITS-lite file (bad magic)");
  }
  HEDC_RETURN_IF_ERROR(reader.GetU32(&version));
  if (version != kFitsVersion) {
    return Status::Corruption(
        StrFormat("unsupported FITS-lite version %u", version));
  }
  uint64_t num_hdus = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&num_hdus));
  FitsFile file;
  for (uint64_t h = 0; h < num_hdus; ++h) {
    uint32_t crc = 0;
    uint64_t len = 0;
    HEDC_RETURN_IF_ERROR(reader.GetU32(&crc));
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&len));
    if (len > reader.remaining()) {
      return Status::Corruption("truncated HDU");
    }
    // Verify and read the body in place: no copy of the HDU span.
    const uint8_t* body = bytes.data() + reader.position();
    HEDC_RETURN_IF_ERROR(reader.Skip(len));
    if (Crc32(body, len) != crc) {
      return Status::Corruption(StrFormat("HDU %llu CRC mismatch",
                                          static_cast<unsigned long long>(h)));
    }
    ByteReader body_reader(body, len);
    FitsHdu hdu;
    HEDC_RETURN_IF_ERROR(body_reader.GetString(&hdu.name));
    uint64_t num_cards = 0;
    HEDC_RETURN_IF_ERROR(body_reader.GetVarint(&num_cards));
    for (uint64_t c = 0; c < num_cards; ++c) {
      FitsCard card;
      HEDC_RETURN_IF_ERROR(body_reader.GetString(&card.key));
      HEDC_RETURN_IF_ERROR(body_reader.GetString(&card.value));
      HEDC_RETURN_IF_ERROR(body_reader.GetString(&card.comment));
      hdu.cards.push_back(std::move(card));
    }
    uint64_t data_len = 0;
    HEDC_RETURN_IF_ERROR(body_reader.GetVarint(&data_len));
    // Untrusted length: check it against the body before allocating.
    if (data_len > body_reader.remaining()) {
      return Status::Corruption("truncated HDU data");
    }
    const uint8_t* data = body + body_reader.position();
    hdu.data.assign(data, data + data_len);
    file.hdus_.push_back(std::move(hdu));
  }
  return file;
}

}  // namespace hedc::archive
